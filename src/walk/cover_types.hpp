// The option/sample types shared by the cover samplers (walk/cover.hpp)
// and the walk engine (walk/engine.hpp). Split out so cover.hpp can build
// substrate samplers on top of the engine template without an include
// cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>

namespace manywalks {

class ThreadPool;  // util/thread_pool.hpp

/// The automatic shard count for a k-lane trial: a pure function of k (and
/// nothing else — NOT the thread count, NOT the pool size), so the shard
/// cut and therefore every result is invariant under --threads
/// (determinism contract v3). One shard per 256 lanes keeps each shard's
/// work per epoch (256 lanes × kShardEpochRounds rounds) long enough to
/// amortize the epoch's two barriers; 32 caps the team (at most one
/// executor per shard), and with it the team·n/8-byte bitmap scratch and
/// the merge width.
constexpr unsigned auto_lane_shards(std::size_t lanes) noexcept {
  return std::clamp<unsigned>(static_cast<unsigned>(lanes / 256), 1u, 32u);
}

/// The executors of one sharded trial: the caller plus `pool_threads`
/// workers, never more than the shards (an executor runs whole shards) or
/// the cores (spinning executors beyond them only steal time from each
/// other). Shared by the trial plan and the sharded driver.
inline unsigned shard_team_size(std::size_t pool_threads, unsigned shards) {
  static const unsigned cores =
      std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>({pool_threads + 1, shards, cores}));
}

struct CoverOptions {
  /// Probability of a token staying put each step (0 = simple walk).
  double laziness = 0.0;
  /// Safety cap on rounds; a sample that reaches the cap reports
  /// covered=false with steps=step_cap.
  std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max();
  /// Shards per trial (determinism contract v3): 0 = the serial lane
  /// kernel; >= 1 runs the sharded driver with that many shards (clamped
  /// to k; 1 is the golden-test configuration). Passed to an estimator, it
  /// is the pinned --lane-shards its trial plan honors. The RESULT is
  /// identical in every case; only the schedule changes.
  unsigned lane_shards = 0;
  /// Worker team for the sharded epoch driver: the engine runs shards on
  /// shard_team_size(shard_pool->size(), shards) executors (the calling
  /// thread participates). Null = shards run inline on the caller. Not
  /// owned.
  ThreadPool* shard_pool = nullptr;
};

/// Exactly CoverOptions{}: every walk runs per-token lane streams
/// (determinism contract v6). Kept only because perfbench/probe.cpp
/// calls it; new code writes CoverOptions{}.
constexpr CoverOptions lane_cover_options() noexcept { return {}; }

struct CoverSample {
  std::uint64_t steps = 0;  ///< rounds until coverage (or the cap)
  bool covered = false;     ///< false iff the cap was hit first
};

}  // namespace manywalks
