// The option/sample types shared by the cover samplers (walk/cover.hpp)
// and the walk engine (walk/engine.hpp). Split out so cover.hpp can build
// substrate samplers on top of the engine template without an include
// cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace manywalks {

class ThreadPool;  // util/thread_pool.hpp

/// The automatic shard count for a k-lane trial: a pure function of k (and
/// nothing else — NOT the thread count, NOT the pool size), so the shard
/// cut and therefore every result is invariant under --threads
/// (determinism contract v3). One shard per 256 lanes keeps per-shard
/// rounds long enough to amortize the round barrier; 32 caps the merge
/// width and the S·n/8-byte shard scratch.
constexpr unsigned auto_lane_shards(std::size_t lanes) noexcept {
  return std::clamp<unsigned>(static_cast<unsigned>(lanes / 256), 1u, 32u);
}

struct CoverOptions {
  /// Probability of a token staying put each step (0 = simple walk).
  double laziness = 0.0;
  /// Safety cap on rounds; a sample that reaches the cap reports
  /// covered=false with steps=step_cap.
  std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max();
  /// Lane-sharding plan (determinism contract v3). 0 with a null
  /// shard_pool = serial unsharded (the status quo); 0 with a pool =
  /// auto_lane_shards(k); >= 1 pins the shard count (1 still routes
  /// through the sharded driver — the golden-test configuration). The
  /// RESULT is identical in every case; only the schedule changes.
  unsigned lane_shards = 0;
  /// Worker team for the sharded round driver: the engine runs shards on
  /// min(shard_pool->size()+1, shards) executors (the calling thread
  /// participates). Null = shards run inline on the caller. Not owned.
  ThreadPool* shard_pool = nullptr;
};

/// Exactly CoverOptions{}: every walk runs per-token lane streams
/// (determinism contract v5). Kept only because perfbench/probe.cpp
/// calls it; new code writes CoverOptions{}.
constexpr CoverOptions lane_cover_options() noexcept { return {}; }

struct CoverSample {
  std::uint64_t steps = 0;  ///< rounds until coverage (or the cap)
  bool covered = false;     ///< false iff the cap was hit first
};

}  // namespace manywalks
