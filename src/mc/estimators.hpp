// Monte-Carlo estimators for the paper's quantities: C_i, C^k_i, h(u,v),
// and the speed-up S^k = C / C^k with propagated uncertainty.
//
// RNG streams: every cover estimator funnels through
// estimate_cover_to_target and so through the lane engines (determinism
// contract v6).
// Trial i under master seed s sees make_trial_rng(s, i), the engine
// derives its per-token streams from one draw of that trial stream, and
// results reduce in trial order, so estimates stay bit-identical across
// thread counts.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "mc/monte_carlo.hpp"
#include "walk/cover.hpp"
#include "walk/hitting.hpp"
#include "walk/sampling.hpp"

namespace manywalks {

/// Estimates the single-walk expected cover time C_start.
McResult estimate_cover_time(const Graph& g, Vertex start,
                             const McOptions& mc, const CoverOptions& cover = {},
                             ThreadPool* pool = nullptr);

/// Estimates the k-walk expected cover time C^k_start (k tokens at start).
McResult estimate_k_cover_time(const Graph& g, Vertex start, unsigned k,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr);

/// Estimates the cover time of a k-walk with explicit starting vertices.
McResult estimate_multi_cover_time(const Graph& g,
                                   std::span<const Vertex> starts,
                                   const McOptions& mc,
                                   const CoverOptions& cover = {},
                                   ThreadPool* pool = nullptr);

/// Estimates h(from, to) for a single walk.
McResult estimate_hitting_time(const Graph& g, Vertex from, Vertex to,
                               const McOptions& mc, const HitOptions& hit = {},
                               ThreadPool* pool = nullptr);

/// C(G) = max_i C_i over the supplied candidate starts (each estimated
/// independently; returns the max and its argmax).
struct MaxCoverEstimate {
  McResult result;
  Vertex argmax_start = 0;
};
MaxCoverEstimate estimate_max_cover_time(const Graph& g,
                                         std::span<const Vertex> starts,
                                         const McOptions& mc,
                                         const CoverOptions& cover = {},
                                         ThreadPool* pool = nullptr);

/// A measured speed-up point S^k = Ĉ / Ĉ^k.
struct SpeedupEstimate {
  unsigned k = 1;
  McResult single;  ///< Ĉ (k = 1)
  McResult multi;   ///< Ĉ^k
  double speedup = 1.0;
  /// First-order propagated half-width:
  /// S * sqrt((δC/C)^2 + (δC^k/C^k)^2).
  double half_width = 0.0;
  /// Step-cap-censored trials feeding either side. When nonzero the ratio
  /// divides biased (lower-bound) means, so it is flagged everywhere it is
  /// rendered instead of being reported as a clean estimate.
  std::uint64_t censored = 0;
};

/// Estimates S^k at a single k (runs both the 1-walk and the k-walk).
SpeedupEstimate estimate_speedup(const Graph& g, Vertex start, unsigned k,
                                 const McOptions& mc,
                                 const CoverOptions& cover = {},
                                 ThreadPool* pool = nullptr);

/// Estimates S^k across several k, reusing one k=1 baseline estimate.
std::vector<SpeedupEstimate> estimate_speedup_curve(
    const Graph& g, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr);

/// Combines two cover-time estimates into a speed-up with propagated error.
SpeedupEstimate combine_speedup(unsigned k, const McResult& single,
                                const McResult& multi);

/// Raw k-walk cover-time samples (k tokens from `start`), one value per
/// trial, in trial order. For distribution/concentration studies
/// (paper Thm 17: tau/C -> 1 when C/h_max -> infinity).
std::vector<double> collect_cover_samples(const Graph& g, Vertex start,
                                          unsigned k, std::uint64_t trials,
                                          std::uint64_t seed,
                                          const CoverOptions& cover = {},
                                          ThreadPool* pool = nullptr);

/// k-walk cover time with the k starting vertices RE-DRAWN each trial from
/// the stationary distribution — the setting of the paper's §1.1
/// comparison with Broder et al. (expected O(m^2 log^3 n / k^2)) and of
/// the Lemma 19 remark (O(n log n / k) on expanders).
McResult estimate_stationary_start_cover(const Graph& g, unsigned k,
                                         const McOptions& mc,
                                         const CoverOptions& cover = {},
                                         ThreadPool* pool = nullptr);

// --- one cover-estimate path for both execution models ----------------------
//
// Every cover estimate funnels through estimate_cover_to_target, whose
// trials run on one of two walkers:
//   * a Substrate (implicit, or CSR-wrapping an in-core or memory-mapped
//     graph): each trial runs on the calling thread's pooled WalkEngineT
//     (sample_cover_to_target in walk/cover.hpp), and the trial plan
//     decides whether the pool fans out over trials or is handed to the
//     lane-sharded engine;
//   * BlockedTrials: one out-of-core BlockWalkEngine
//     (walk/block_engine.hpp), and so one extent cache, shared by every
//     trial. That forces the trial loop serial (kBlocked: no pool, no lane
//     shards), which is run_monte_carlo's serial index-ordered loop.
// Only the trial plan (plan_trials) differs. The per-trial streams, the
// seeding scheme and the reduction order are shared, so for a given
// (graph, seed) the block engine's estimates are BIT-IDENTICAL to the
// in-core ones at any memory budget (determinism contract v4).
//
// The fixed-target variants are what the giant-graph experiments are
// built on: full cover is Θ(n²) on a 10^8-cycle, but the time for k walks
// to visit a fixed number of distinct vertices is cheap to sample and
// shows the same speed-up regimes (the paper's own cycle argument, Lemmas
// 21/22, bounds exactly the spread of the k walks).

class BlockWalkEngine;

/// Engine/cache activity aggregated across a blocked run. Every trial
/// starts from zeroed counters (BlockWalkEngine::reset_stats), so these
/// are sums of independent per-trial readings — not points on one
/// monotone series — and the peak field is a true per-trial maximum.
/// Counters never feed back into walking, so resetting them is inert.
struct BlockedRunTotals {
  std::uint64_t trials = 0;
  std::uint64_t cache_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_loaded = 0;
  std::uint64_t horizons = 0;
  std::uint64_t bucket_passes = 0;
  std::uint64_t peak_trial_bytes_loaded = 0;  // heaviest single trial

  /// Folds one finished trial's counters in (call before the next reset).
  void absorb(const BlockWalkEngine& engine);
};

/// The out-of-core trial walker: the engine every trial of an estimate
/// shares, and the totals its per-trial counters are summed into (null:
/// not collected).
struct BlockedTrials {
  BlockWalkEngine& engine;
  BlockedRunTotals* totals = nullptr;

  Vertex num_vertices() const;
};

/// One blocked trial, the counterpart of the substrate funnel in
/// walk/cover.hpp: resets the engine to `starts`, zeroes its counters and
/// runs until `target` vertices are visited, then folds the trial's
/// counters into the totals. Walking never reads the counters, so this
/// cannot perturb the v4 schedule.
CoverSample sample_cover_to_target(const BlockedTrials& walker,
                                   std::span<const Vertex> starts,
                                   Vertex target, Rng& rng,
                                   const CoverOptions& options = {});

/// What a cover estimate's trials run on.
template <class W>
concept TrialWalker = Substrate<W> || std::same_as<W, BlockedTrials>;

/// THE trial plan of one cover estimate with k lanes on `walker`: the only
/// code that decides between trial and lane parallelism and fixes the
/// shard count. The shared block engine runs serial kBlocked trials. On a
/// substrate a pinned `pinned_shards` (clamped to k) shards every trial;
/// otherwise choose_parallelism's trial-count rule picks, and lanes must
/// also pay for their merge: an epoch's k·kShardEpochRounds steps at least
/// the team·⌈n/64⌉ words it merges. The shard count is auto_lane_shards(k)
/// or the pin, never the pool size (contract v3), so no plan changes a
/// result.
template <TrialWalker W>
TrialPlan plan_trials(const W& walker, std::size_t k, const McOptions& mc,
                      unsigned pinned_shards, ThreadPool* pool) {
  if constexpr (!Substrate<W>) {
    return {McParallelism::kBlocked, 0, 1, nullptr};
  } else {
    const unsigned pool_threads = pool != nullptr ? pool->size() : 0;
    const unsigned shards =
        pinned_shards > 0
            ? static_cast<unsigned>(std::min<std::size_t>(
                  pinned_shards, std::max<std::size_t>(k, 1)))
            : auto_lane_shards(k);
    const unsigned team = shard_team_size(pool_threads, shards);
    const std::uint64_t words =
        (std::uint64_t{walker.num_vertices()} + 63) / 64;
    if (pinned_shards > 0 ||
        (choose_parallelism(mc.max_trials, k, pool_threads) ==
             McParallelism::kLanes &&
         k * kShardEpochRounds >= team * words)) {
      return {McParallelism::kLanes, shards, team, pool};
    }
    return {McParallelism::kTrials, 0, pool_threads + 1, pool};
  }
}

/// Runs one cover estimate under a resolved plan: each trial takes its
/// starts from `draw_starts(rng)`, on the trial stream before the walk,
/// and walks until `target` distinct vertices are visited. The estimators
/// below plan and call this; a caller running several estimates under one
/// plan calls it directly.
template <TrialWalker W, class DrawStarts>
McResult run_cover_trials(const W& walker, const TrialPlan& plan,
                          Vertex target, DrawStarts draw_starts,
                          const McOptions& mc, const CoverOptions& cover) {
  McOptions mc_run = mc;
  mc_run.parallelism = plan.mode;
  CoverOptions cover_run = cover;
  cover_run.lane_shards = plan.lane_shards;
  cover_run.shard_pool =
      plan.mode == McParallelism::kLanes ? plan.pool : nullptr;
  return run_monte_carlo(
      [walker, target, cover_run, draw_starts](std::uint64_t, Rng& rng) {
        const std::vector<Vertex>& starts = draw_starts(rng);
        const CoverSample sample =
            sample_cover_to_target(walker, starts, target, rng, cover_run);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_run, plan.pool);
}

/// The same starts every trial.
inline auto fixed_starts(std::span<const Vertex> starts) {
  return [owned = std::vector<Vertex>(starts.begin(), starts.end())](
             Rng&) -> const std::vector<Vertex>& { return owned; };
}

/// k starts re-drawn every trial from the stationary distribution of the
/// graph whose CSR row index is `offsets`.
inline auto stationary_starts(std::span<const std::uint64_t> offsets,
                              unsigned k) {
  return [offsets, k](Rng& rng) {
    std::vector<Vertex> starts(k);
    for (Vertex& s : starts) s = sample_stationary_vertex_csr(offsets, rng);
    return starts;
  };
}

/// k starts re-drawn every trial uniformly from n vertices (with
/// repetition), by the full-word Lemire draw: at giant n the 32-bit
/// uniform_below re-draws with probability (2^32 mod n)/2^32 (~2.2% at
/// n = 10^8), the wide one vanishingly rarely.
inline auto uniform_starts(Vertex n, unsigned k) {
  return [n, k](Rng& rng) {
    std::vector<Vertex> starts(k);
    for (Vertex& s : starts) s = rng.uniform_below_wide(n);
    return starts;
  };
}

/// Estimates the expected rounds for tokens started at `starts` to visit
/// `target` distinct vertices (target = num_vertices() → cover time).
/// `cover.lane_shards` is the pinned shard count the plan honors.
template <TrialWalker W>
McResult estimate_cover_to_target(const W& walker,
                                  std::span<const Vertex> starts,
                                  Vertex target, const McOptions& mc,
                                  const CoverOptions& cover = {},
                                  ThreadPool* pool = nullptr) {
  return run_cover_trials(
      walker, plan_trials(walker, starts.size(), mc, cover.lane_shards, pool),
      target, fixed_starts(starts), mc, cover);
}

/// The same with k tokens all started at `start`.
template <TrialWalker W>
McResult estimate_cover_to_target(const W& walker, Vertex start, unsigned k,
                                  Vertex target, const McOptions& mc,
                                  const CoverOptions& cover = {},
                                  ThreadPool* pool = nullptr) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  const std::vector<Vertex> starts(k, start);
  return estimate_cover_to_target(walker, starts, target, mc, cover, pool);
}

template <TrialWalker W>
McResult estimate_cover_time(const W& walker, Vertex start,
                             const McOptions& mc, const CoverOptions& cover = {},
                             ThreadPool* pool = nullptr) {
  return estimate_cover_to_target(walker, start, 1, walker.num_vertices(), mc,
                                  cover, pool);
}

template <TrialWalker W>
McResult estimate_k_cover_time(const W& walker, Vertex start, unsigned k,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr) {
  return estimate_cover_to_target(walker, start, k, walker.num_vertices(), mc,
                                  cover, pool);
}

/// k-walk cover time with the k starts RE-DRAWN each trial from the
/// stationary distribution of the graph whose CSR row index is `offsets`.
template <TrialWalker W>
McResult estimate_stationary_start_cover(
    const W& walker, std::span<const std::uint64_t> offsets, unsigned k,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  return run_cover_trials(walker,
                          plan_trials(walker, k, mc, cover.lane_shards, pool),
                          walker.num_vertices(), stationary_starts(offsets, k),
                          mc, cover);
}

/// Estimates S^k = T¹(target)/T^k(target) across several k, reusing one
/// k = 1 baseline (stream mix64(seed ^ 0x1a1c)); each k > 1 runs on
/// mix64(seed ^ (0xbeef00 + k)).
template <TrialWalker W>
std::vector<SpeedupEstimate> estimate_speedup_curve_to_target(
    const W& walker, Vertex start, Vertex target,
    std::span<const unsigned> ks, const McOptions& mc,
    const CoverOptions& cover = {}, ThreadPool* pool = nullptr) {
  MW_REQUIRE(!ks.empty(), "need at least one k");
  // One pool for every point of the curve; the shared block engine runs
  // its trials on the caller and needs none.
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && Substrate<W>) {
    local_pool = std::make_unique<ThreadPool>(mc.threads);
    pool = local_pool.get();
  }
  McOptions base = mc;
  base.seed = mix64(mc.seed ^ 0x1a1cULL);  // distinct stream for the baseline
  const McResult single =
      estimate_cover_to_target(walker, start, 1, target, base, cover, pool);

  std::vector<SpeedupEstimate> curve;
  curve.reserve(ks.size());
  for (unsigned k : ks) {
    MW_REQUIRE(k >= 1, "k must be >= 1");
    McOptions per_k = mc;
    per_k.seed = mix64(mc.seed ^ (0xbeef00ULL + k));
    const McResult multi =
        k == 1 ? single
               : estimate_cover_to_target(walker, start, k, target, per_k,
                                          cover, pool);
    SpeedupEstimate est = combine_speedup(k, single, multi);
    if (k == 1) {
      // Numerator and denominator are the same estimate: S^1 is exactly 1
      // with no uncertainty (perfectly correlated errors) — and exactly 1
      // even when the baseline was censored, so the ratio is not flagged
      // (the T^1 column still is).
      est.half_width = 0.0;
      est.censored = 0;
    }
    curve.push_back(est);
  }
  return curve;
}

template <TrialWalker W>
std::vector<SpeedupEstimate> estimate_speedup_curve(
    const W& walker, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr) {
  return estimate_speedup_curve_to_target(walker, start, walker.num_vertices(),
                                          ks, mc, cover, pool);
}

}  // namespace manywalks
