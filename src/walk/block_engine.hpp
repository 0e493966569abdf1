// Out-of-core, block-scheduled k-walk engine (determinism contract v4).
//
// BlockWalkEngine drives the same per-lane walks as WalkEngineT's lane
// path (engine.hpp), but against a BlockedGraph whose adjacency lives on
// disk: walkers sit in buckets by the vertex block that holds their
// current position (walker_buckets.hpp), each pass sweeps the non-empty
// blocks in ascending id order, each block's targets extent is pulled
// through an LRU ExtentCache (one sequential pread per load, into a
// buffer the cache owns and reuses; nothing is mapped), and every
// resident walker advances until it exits the block or its round budget
// for the current horizon ends. A walker that exits to a higher block
// keeps walking in the same pass; one that exits to a lower block waits
// for the next. With B blocks and k walkers, one horizon costs
// O(min(horizon, B)·B) block loads instead of O(horizon·k) random 4 KB
// faults — the drunkardmob trade.
//
// Determinism contract v4: the schedule — horizon boundaries, pass and
// block order, in-bucket lane order — is a pure function of (graph, k,
// seed, laziness, step_cap). The memory budget shapes ONLY which extents
// stay cached, never what is executed when, so runs are bit-identical at
// every budget; and because each lane's trajectory is a pure function of
// its own RNG stream (contract v6) and visited-set updates commute, the
// results are bit-identical to the IN-CORE lane engine for the same seed:
// run_until_visited returns the same (steps, covered) and leaves the same
// tokens, RNG states and visited set — those of the covering round, or of
// the cap when the target is not reached. A fixed-rounds run is a run to
// num_vertices() capped at the round count that does not cover.
//
// Cover needs the round at which the union of visited vertices first
// reaches the target, which an asynchronous schedule does not pass
// through in order. So a cover run works in horizons of kBlockHorizon
// rounds, and every vertex first visited inside a horizon gets a stamp:
// the earliest round within the horizon at which any lane reached it
// (the first lane to arrive writes it, a later lane that arrived at an
// earlier round lowers it). The covering round r* is then the smallest r
// with visited_before + #{fresh v : stamp[v] <= r} >= target; fresh
// vertices stamped after r* are taken out of the visited set again.
//
// Tokens and lane RNGs are not rewound at once: the engine keeps their
// horizon-start copies, and the first tokens() read or the next run
// call re-advances every lane r* rounds from them without committing
// visits. reset() drops that pending state, so Monte-Carlo trials never
// pay for it.
//
// The engine is serial by design (the workload is I/O-bound, not
// CPU-bound). Block scheduling reorders token steps, which only per-lane
// streams survive: a stream shared by all tokens could not be scheduled
// this way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "storage/block_store.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/visit_tracker.hpp"
#include "walk/walker_buckets.hpp"

namespace manywalks {

/// Rounds per asynchronous horizon between coverage checks. Part of the
/// v4 schedule contract: changing it changes nothing observable (results
/// are bit-identical to the in-core engine either way), only the
/// batching ratio.
inline constexpr std::uint32_t kBlockHorizon = 64;
static_assert(kBlockHorizon <= 255, "first-visit stamps are one byte");

class BlockWalkEngine {
 public:
  struct Stats {
    std::uint64_t horizons = 0;        ///< asynchronous horizons executed
    std::uint64_t bucket_passes = 0;   ///< ascending sweeps over the buckets
    std::uint64_t block_visits = 0;    ///< per-pass block activations
    std::uint64_t bucket_migrations = 0;  ///< walkers that exited a block
                                          ///< mid-budget and were rebucketed
  };

  /// Binds to a v2 graph with an explicit resident-extent budget.
  /// Requires min_degree >= 1 (walkable), like every substrate binding.
  BlockWalkEngine(const BlockedGraph& graph, std::uint64_t mem_budget_bytes);

  /// Same contract as WalkEngineT::reset: k = starts.size() walkers, all
  /// start vertices marked visited, lane streams reseeded on next run.
  void reset(std::span<const Vertex> starts);

  /// Same contract (and same results, bit for bit) as the in-core lane
  /// engine's run_until_visited. lane_shards/shard_pool are ignored
  /// (serial engine).
  CoverSample run_until_visited(Vertex target, Rng& rng,
                                const CoverOptions& options = {});

  Vertex num_vertices() const noexcept { return graph_->num_vertices(); }
  Vertex num_visited() const noexcept { return tracker_.num_visited(); }
  bool visited(Vertex v) const { return tracker_.visited(v); }
  /// Token positions. After a covered run_until_visited, the first call
  /// re-advances the lanes to the covering round (see settle()).
  std::span<const Vertex> tokens() const {
    // Logically const: settling only produces the state the last run
    // already fixed.
    const_cast<BlockWalkEngine*>(this)->settle();
    return tokens_;
  }
  const Stats& stats() const noexcept { return stats_; }
  const ExtentCache::Stats& cache_stats() const noexcept {
    return cache_.stats();
  }

  /// Zeroes the engine's schedule counters and the cache's traffic
  /// counters so per-trial attribution is possible (the blocked estimators
  /// share one engine across trials). Pure bookkeeping: no cached extent
  /// is dropped, no schedule state changes.
  void reset_stats() noexcept {
    stats_ = Stats{};
    cache_.reset_stats();
  }

 private:
  /// What a step does with the vertex it lands on: nothing (the rewind
  /// to a covering round), or mark it visited and keep its first-visit
  /// stamp (a cover horizon).
  enum class Visits { kNone, kStamp };
  /// First-visit round within the current horizon; 0 = not fresh. Not a
  /// character type: a char store may alias any object, which would make
  /// the kernel reload its other state after every stamp write.
  enum class Stamp : std::uint8_t {};

  void ensure_lanes(Rng& rng);
  /// Re-advances the lanes to the covering round of the last cover run,
  /// if that is still pending.
  void settle();
  /// Every walker advances `rounds` rounds: lanes are bucketed by block,
  /// then passes sweep the buckets until all budgets are spent.
  template <Visits kVisits>
  void run_horizon(std::uint32_t rounds, double laziness);
  template <bool kLazy, Visits kVisits>
  void process_block(std::uint32_t block, std::uint32_t rounds,
                     double laziness);
  /// Closes a stamped horizon that started with `before` vertices
  /// visited: returns the covering round (0 if `target` was not reached),
  /// unmarks the fresh vertices stamped after it, and zeroes the stamps.
  std::uint32_t close_horizon(Vertex target, Vertex before,
                              std::uint32_t rounds);
  /// Observability flush for one horizon (serial calling thread):
  /// schedule-counter deltas since `before` plus the logical round count.
  void note_run_observed(const Stats& before, std::uint64_t rounds) const;

  const BlockedGraph* graph_;
  ExtentCache cache_;
  WordVisitTracker tracker_;
  std::vector<Vertex> tokens_;
  LaneRngs lane_rngs_;
  bool lanes_seeded_ = false;
  WalkerBuckets buckets_;
  std::vector<std::uint32_t> rounds_left_;
  Stats stats_;
  // Cover horizons: one stamp per vertex, and the vertices first visited
  // in the current horizon (at most n - visited_before of them).
  std::vector<Stamp> stamps_;
  std::unique_ptr<Vertex[]> fresh_;
  std::size_t num_fresh_ = 0;
  // Horizon-start tokens and lane RNGs; when rewind_rounds_ > 0 the
  // lanes still have to be re-advanced that many rounds from them.
  std::vector<Vertex> snap_tokens_;
  std::vector<Rng> snap_rngs_;
  std::uint32_t rewind_rounds_ = 0;
  double rewind_laziness_ = 0.0;
};

}  // namespace manywalks
