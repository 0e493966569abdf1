// Units for the lane-sharded execution layer (determinism contract v3,
// docs/ARCHITECTURE.md): ShardedVisitTracker, the round barrier, the
// static team partitioner, and the thread-budget policy. End-to-end
// shard/thread invariance of the engine itself lives in
// tests/test_engine.cpp.
#include "walk/visit_tracker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "walk/cover_types.hpp"

namespace manywalks {
namespace {

// --- ShardedVisitTracker ----------------------------------------------------

TEST(ShardedVisitTracker, VisitIsPerShardExact) {
  ShardedVisitTracker trk(128, 3);
  EXPECT_TRUE(trk.visit(0, 5));
  EXPECT_FALSE(trk.visit(0, 5));  // repeat within a shard: not new
  EXPECT_TRUE(trk.visit(1, 5));   // same vertex, other shard: new TO IT
  EXPECT_TRUE(trk.visit(1, 64));
  EXPECT_EQ(trk.shard_visited(0), 1u);
  EXPECT_EQ(trk.shard_visited(1), 2u);
  EXPECT_EQ(trk.shard_visited(2), 0u);
}

TEST(ShardedVisitTracker, MergeCountsUnionNotSum) {
  ShardedVisitTracker trk(256, 4);
  // Overlapping visit sets: shard s marks multiples of s+1 below 100.
  std::set<Vertex> expected;
  for (unsigned s = 0; s < 4; ++s) {
    for (Vertex v = 0; v < 100; v += s + 1) {
      trk.visit(s, v);
      expected.insert(v);
    }
  }
  EXPECT_EQ(trk.merge_exact(), static_cast<Vertex>(expected.size()));
  for (Vertex v = 0; v < 256; ++v) {
    EXPECT_EQ(trk.merged_visited(v), expected.count(v) == 1) << "v=" << v;
  }
  // Idempotent: re-merging with no new visits is the same union.
  EXPECT_EQ(trk.merge_exact(), static_cast<Vertex>(expected.size()));
}

TEST(ShardedVisitTracker, RangeMergePartialsSumToExactCount) {
  const Vertex n = 1000;  // 16 words: an uneven split exercises tiling
  ShardedVisitTracker trk(n, 2);
  Rng rng(7);
  std::set<Vertex> expected;
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<Vertex>(rng.uniform_below_wide(n));
    trk.visit(i % 2 == 0 ? 0u : 1u, v);
    expected.insert(v);
  }
  const std::size_t wps = trk.words_per_shard();
  std::uint64_t total = 0;
  // Three deliberately uneven ranges tile [0, wps).
  total += trk.merge_range(0, wps / 3);
  total += trk.merge_range(wps / 3, wps - 1);
  total += trk.merge_range(wps - 1, wps);
  EXPECT_EQ(total, expected.size());
}

TEST(ShardedVisitTracker, SeededBitsSurviveMerge) {
  ShardedVisitTracker trk(128, 2);
  const std::uint64_t words[2] = {(1ull << 3), (1ull << (100 - 64))};
  trk.seed_merged(words, 2);
  trk.visit(0, 3);    // already in the seed
  trk.visit(1, 42);   // genuinely new
  EXPECT_EQ(trk.merge_exact(), 3u);
  EXPECT_TRUE(trk.merged_visited(3));
  EXPECT_TRUE(trk.merged_visited(100));
  EXPECT_TRUE(trk.merged_visited(42));
}

TEST(ShardedVisitTracker, PublishedBoundNeverUndercountsUnion) {
  const Vertex n = 512;
  ShardedVisitTracker trk(n, 3);
  Rng rng(21);
  std::set<Vertex> expected;
  std::uint64_t merged = 0;  // worker-local replica, as the engine keeps it
  for (int round = 1; round <= 40; ++round) {
    for (unsigned s = 0; s < 3; ++s) {
      for (int i = 0; i < 5; ++i) {
        const auto v = static_cast<Vertex>(rng.uniform_below_wide(n));
        trk.visit(s, v);
        expected.insert(v);
      }
      trk.publish_shard(round & 1, s);
    }
    const std::uint64_t bound =
        trk.upper_bound_visited(static_cast<unsigned>(round & 1), merged);
    EXPECT_GE(bound, expected.size()) << "round=" << round;
    if (round % 7 == 0) {
      merged = trk.merge_exact();
      EXPECT_EQ(merged, expected.size());
      // merge_exact snapshots every shard and republishes both parities,
      // so the re-tightened bound collapses to the exact count.
      EXPECT_EQ(trk.upper_bound_visited(0, merged), expected.size());
      EXPECT_EQ(trk.upper_bound_visited(1, merged), expected.size());
    }
  }
}

TEST(ShardedVisitTracker, PublishFreezesDeltasPerParity) {
  ShardedVisitTracker trk(128, 1);
  trk.visit(0, 1);
  trk.visit(0, 2);
  trk.publish_shard(0, 0);
  // Later visits must not leak into the already-published parity-0 row.
  trk.visit(0, 3);
  trk.publish_shard(1, 0);
  EXPECT_EQ(trk.upper_bound_visited(0, 0), 2u);
  EXPECT_EQ(trk.upper_bound_visited(1, 0), 3u);
  // Snapshot re-bases the delta; a fresh publish reports only post-snapshot
  // visits while the frozen row is untouched.
  trk.merge_range(0, trk.words_per_shard());
  trk.snapshot_shard(0);
  trk.visit(0, 4);
  trk.publish_shard(1, 0);
  EXPECT_EQ(trk.upper_bound_visited(1, 3), 4u);
  EXPECT_EQ(trk.upper_bound_visited(0, 3), 5u);  // stale parity-0 row: 3+2
}

TEST(ShardedVisitTracker, ResetClearsEverything) {
  ShardedVisitTracker trk(128, 2);
  trk.visit(0, 1);
  trk.visit(1, 2);
  trk.publish_shard(0, 0);
  trk.publish_shard(0, 1);
  trk.merge_exact();
  trk.reset();
  EXPECT_EQ(trk.shard_visited(0), 0u);
  EXPECT_EQ(trk.shard_visited(1), 0u);
  EXPECT_EQ(trk.merged_count(), 0u);
  EXPECT_EQ(trk.upper_bound_visited(0, 0), 0u);
  EXPECT_EQ(trk.upper_bound_visited(1, 0), 0u);
  EXPECT_EQ(trk.merge_exact(), 0u);
}

// --- SpinBarrier ------------------------------------------------------------

TEST(SpinBarrier, LockStepsARoundLoop) {
  const unsigned team = 4;
  const int rounds = 2000;
  SpinBarrier barrier(team);
  std::vector<std::uint64_t> counts(team * 16, 0);  // padded slots
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < team; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        counts[w * 16] = static_cast<std::uint64_t>(r + 1);
        if (!barrier.arrive_and_wait()) return;
        // Between the two barriers everyone must observe everyone at r+1.
        for (unsigned o = 0; o < team; ++o) {
          if (counts[o * 16] != static_cast<std::uint64_t>(r + 1)) {
            ok.store(false);
          }
        }
        if (!barrier.arrive_and_wait()) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpinBarrier, PoisonReleasesWaiters) {
  SpinBarrier barrier(2);
  std::atomic<int> released{0};
  std::thread waiter([&] {
    // Spins alone (participants=2, nobody else arrives) until poison
    // frees it with a false return.
    EXPECT_FALSE(barrier.arrive_and_wait());
    released.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  barrier.poison();
  waiter.join();
  EXPECT_EQ(released.load(), 1);
  // Poison is sticky: later arrivals fail immediately.
  EXPECT_FALSE(barrier.arrive_and_wait());
}

// --- parallel_for_static ----------------------------------------------------

TEST(ParallelForStatic, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::uint64_t count : {1ull, 2ull, 4ull, 7ull, 64ull}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    parallel_for_static(pool, count,
                        [&](std::uint64_t i) { hits[i].fetch_add(1); });
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ParallelForStatic, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for_static(
                   pool, 8,
                   [&](std::uint64_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

// --- thread-budget policy ---------------------------------------------------

TEST(ThreadBudget, AutoLaneShardsIsAPureFunctionOfK) {
  EXPECT_EQ(auto_lane_shards(1), 1u);
  EXPECT_EQ(auto_lane_shards(255), 1u);
  EXPECT_EQ(auto_lane_shards(512), 2u);
  EXPECT_EQ(auto_lane_shards(4096), 16u);
  EXPECT_EQ(auto_lane_shards(1u << 20), 32u);  // clamped
}

TEST(ThreadBudget, ChoosesTrialsWhenTheySaturate) {
  // No pool: nothing to shard over.
  EXPECT_EQ(choose_parallelism(1000, 4096, 0), McParallelism::kTrials);
  EXPECT_EQ(choose_parallelism(1000, 4096, 1), McParallelism::kTrials);
  // Plenty of trials per executor: trial-parallel wins regardless of k.
  EXPECT_EQ(choose_parallelism(1000, 1u << 16, 4), McParallelism::kTrials);
}

TEST(ThreadBudget, ChoosesLanesForFewLongWideTrials) {
  // Few trials, wide k: shard the lanes inside each trial.
  EXPECT_EQ(choose_parallelism(8, 4096, 8), McParallelism::kLanes);
  // Few trials but k too narrow to shard: stay trial-parallel.
  EXPECT_EQ(choose_parallelism(8, 16, 8), McParallelism::kTrials);
}

}  // namespace
}  // namespace manywalks
