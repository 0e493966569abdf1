// Units for the lane-sharded execution layer (determinism contract v3,
// docs/ARCHITECTURE.md): ShardedVisitTracker, the epoch barrier, the
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
#include <utility>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "walk/cover_types.hpp"

namespace manywalks {
namespace {

// --- ShardedVisitTracker ----------------------------------------------------

/// Whether v's bit is set in a bitmap of tracker words.
bool bit_set(const std::uint64_t* words, Vertex v) {
  return ((words[v >> 6] >> (v & 63)) & 1) != 0;
}

TEST(ShardedVisitTracker, VisitIsPerShardExact) {
  ShardedVisitTracker trk(128, 3);
  EXPECT_TRUE(trk.visit(0, 5));
  EXPECT_FALSE(trk.visit(0, 5));  // repeat within a shard: not new
  EXPECT_TRUE(trk.visit(1, 5));   // same vertex, other shard: new TO IT
  EXPECT_TRUE(trk.visit(1, 64));
  EXPECT_TRUE(bit_set(trk.shard_words(0), 5));
  EXPECT_FALSE(bit_set(trk.shard_words(0), 64));
  EXPECT_TRUE(bit_set(trk.shard_words(1), 64));
  EXPECT_FALSE(bit_set(trk.shard_words(2), 5));
}

TEST(ShardedVisitTracker, MergeCountsUnionNotSum) {
  const std::vector<std::uint64_t> empty(4, 0);
  ShardedVisitTracker trk(256, 4);
  trk.reset(empty.data());
  // Overlapping visit sets: shard s marks multiples of s+1 below 100.
  std::set<Vertex> expected;
  for (unsigned s = 0; s < 4; ++s) {
    for (Vertex v = 0; v < 100; v += s + 1) {
      trk.visit(s, v);
      expected.insert(v);
    }
  }
  EXPECT_EQ(trk.merge_range(0, 0, 4), static_cast<Vertex>(expected.size()));
  for (Vertex v = 0; v < 256; ++v) {
    EXPECT_EQ(bit_set(trk.union_words(1), v), expected.count(v) == 1)
        << "v=" << v;
  }
  // Idempotent: merging back with no new visits is the same union.
  EXPECT_EQ(trk.merge_range(1, 0, 4), static_cast<Vertex>(expected.size()));
}

TEST(ShardedVisitTracker, RangeMergePartialsSumToExactCount) {
  const Vertex n = 1000;  // 16 words: an uneven split exercises tiling
  const std::vector<std::uint64_t> empty(16, 0);
  ShardedVisitTracker trk(n, 2);
  trk.reset(empty.data());
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
  total += trk.merge_range(0, 0, wps / 3);
  total += trk.merge_range(0, wps / 3, wps - 1);
  total += trk.merge_range(0, wps - 1, wps);
  EXPECT_EQ(total, expected.size());
}

TEST(ShardedVisitTracker, SeededBitsSurviveMerge) {
  ShardedVisitTracker trk(128, 2);
  const std::uint64_t words[2] = {(1ull << 3), (1ull << (100 - 64))};
  trk.reset(words);
  trk.visit(0, 3);    // already in the seed
  trk.visit(1, 42);   // genuinely new
  EXPECT_EQ(trk.merge_range(0, 0, 2), 3u);
  EXPECT_TRUE(bit_set(trk.union_words(1), 3));
  EXPECT_TRUE(bit_set(trk.union_words(1), 100));
  EXPECT_TRUE(bit_set(trk.union_words(1), 42));
}

TEST(ShardedVisitTracker, PingPongMergeKeepsTheEpochStartUnion) {
  // The epoch driver merges union(p) into union(p ^ 1) and, when the
  // target was crossed, replays from union(p): the source buffer must come
  // out of every merge untouched, while the partials over a range tiling
  // sum to the exact union.
  const Vertex n = 700;  // 11 words, the last one partial
  const std::vector<std::uint64_t> empty(11, 0);
  ShardedVisitTracker trk(n, 3);
  trk.reset(empty.data());
  Rng rng(33);
  std::set<Vertex> expected;
  unsigned from = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const std::vector<std::uint64_t> before(
        trk.union_words(from), trk.union_words(from) + trk.words_per_shard());
    for (int i = 0; i < 40; ++i) {
      const auto v = static_cast<Vertex>(rng.uniform_below_wide(n));
      trk.visit(static_cast<unsigned>(i % 3), v);
      expected.insert(v);
    }
    const std::size_t wps = trk.words_per_shard();
    std::uint64_t total = 0;
    for (const auto& [b, e] : {std::pair<std::size_t, std::size_t>{0, 4},
                               {4, 5}, {5, wps}}) {
      total += trk.merge_range(from, b, e);
    }
    EXPECT_EQ(total, expected.size()) << "epoch=" << epoch;
    for (std::size_t w = 0; w < wps; ++w) {
      EXPECT_EQ(trk.union_words(from)[w], before[w]) << "word=" << w;
    }
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(bit_set(trk.union_words(from ^ 1), v), expected.count(v) == 1)
          << "epoch=" << epoch << " v=" << v;
    }
    from ^= 1;
  }
}

TEST(ShardedVisitTracker, ResetClearsEverything) {
  const std::vector<std::uint64_t> empty(2, 0);
  ShardedVisitTracker trk(128, 2);
  trk.reset(empty.data());
  trk.visit(0, 1);
  trk.visit(1, 2);
  trk.merge_range(0, 0, 2);
  trk.reset(empty.data());
  EXPECT_TRUE(trk.visit(0, 1));  // the shard bitmaps were cleared
  EXPECT_TRUE(trk.visit(1, 2));
  trk.reset(empty.data());
  EXPECT_EQ(trk.merge_range(0, 0, 2), 0u);
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
