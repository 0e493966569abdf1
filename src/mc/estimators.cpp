#include "mc/estimators.hpp"

#include <cmath>
#include <memory>

#include "util/check.hpp"
#include "walk/block_engine.hpp"
#include "walk/sampling.hpp"

namespace manywalks {

McResult estimate_cover_time(const Graph& g, Vertex start, const McOptions& mc,
                             const CoverOptions& cover, ThreadPool* pool) {
  McOptions mc_planned = mc;
  CoverOptions cover_planned = cover;
  apply_thread_budget(1, pool, mc_planned, cover_planned);
  return run_monte_carlo(
      [&g, start, cover_planned](std::uint64_t, Rng& rng) {
        const CoverSample sample =
            sample_cover_time(g, start, rng, cover_planned);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_planned, pool);
}

McResult estimate_k_cover_time(const Graph& g, Vertex start, unsigned k,
                               const McOptions& mc, const CoverOptions& cover,
                               ThreadPool* pool) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  McOptions mc_planned = mc;
  CoverOptions cover_planned = cover;
  apply_thread_budget(k, pool, mc_planned, cover_planned);
  return run_monte_carlo(
      [&g, start, k, cover_planned](std::uint64_t, Rng& rng) {
        const CoverSample sample =
            sample_k_cover_time(g, start, k, rng, cover_planned);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_planned, pool);
}

McResult estimate_multi_cover_time(const Graph& g,
                                   std::span<const Vertex> starts,
                                   const McOptions& mc,
                                   const CoverOptions& cover,
                                   ThreadPool* pool) {
  std::vector<Vertex> starts_copy(starts.begin(), starts.end());
  McOptions mc_planned = mc;
  CoverOptions cover_planned = cover;
  apply_thread_budget(starts_copy.size(), pool, mc_planned, cover_planned);
  return run_monte_carlo(
      [&g, starts_copy, cover_planned](std::uint64_t, Rng& rng) {
        const CoverSample sample =
            sample_multi_cover_time(g, starts_copy, rng, cover_planned);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_planned, pool);
}

McResult estimate_hitting_time(const Graph& g, Vertex from, Vertex to,
                               const McOptions& mc, const HitOptions& hit,
                               ThreadPool* pool) {
  return run_monte_carlo(
      [&g, from, to, &hit](std::uint64_t, Rng& rng) {
        const HitSample sample = sample_hitting_time(g, from, to, rng, hit);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.hit};
      },
      mc, pool);
}

MaxCoverEstimate estimate_max_cover_time(const Graph& g,
                                         std::span<const Vertex> starts,
                                         const McOptions& mc,
                                         const CoverOptions& cover,
                                         ThreadPool* pool) {
  MW_REQUIRE(!starts.empty(), "need at least one candidate start");
  MaxCoverEstimate best;
  bool first = true;
  std::uint64_t salt = 0;
  for (Vertex start : starts) {
    McOptions per_start = mc;
    per_start.seed = mix64(mc.seed ^ (0xc0ffee + salt++));
    McResult result = estimate_cover_time(g, start, per_start, cover, pool);
    if (first || result.ci.mean > best.result.ci.mean) {
      best.result = std::move(result);
      best.argmax_start = start;
      first = false;
    }
  }
  return best;
}

SpeedupEstimate combine_speedup(unsigned k, const McResult& single,
                                const McResult& multi) {
  MW_REQUIRE(multi.ci.mean > 0.0, "k-walk cover estimate must be positive");
  MW_REQUIRE(single.ci.mean > 0.0, "1-walk cover estimate must be positive");
  SpeedupEstimate est;
  est.k = k;
  est.single = single;
  est.multi = multi;
  est.speedup = single.ci.mean / multi.ci.mean;
  const double rel1 = single.ci.half_width / single.ci.mean;
  const double relk = multi.ci.half_width / multi.ci.mean;
  est.half_width = est.speedup * std::sqrt(rel1 * rel1 + relk * relk);
  // Censored inputs mean both means are lower bounds, so their ratio is
  // biased in an unknown direction; carry the count so every renderer
  // flags the estimate instead of presenting it as clean.
  est.censored = single.censored + multi.censored;
  return est;
}

std::vector<double> collect_cover_samples(const Graph& g, Vertex start,
                                          unsigned k, std::uint64_t trials,
                                          std::uint64_t seed,
                                          const CoverOptions& cover,
                                          ThreadPool* pool) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  MW_REQUIRE(trials >= 1, "need at least one trial");
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<ThreadPool>(0);
    pool = local_pool.get();
  }
  std::vector<double> samples(trials, 0.0);
  parallel_for(*pool, 0, trials, [&](std::uint64_t i) {
    Rng rng = make_trial_rng(seed, i);
    const CoverSample sample = sample_k_cover_time(g, start, k, rng, cover);
    samples[i] = static_cast<double>(sample.steps);
  });
  return samples;
}

McResult estimate_stationary_start_cover(const Graph& g, unsigned k,
                                         const McOptions& mc,
                                         const CoverOptions& cover,
                                         ThreadPool* pool) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  McOptions mc_planned = mc;
  CoverOptions cover_planned = cover;
  apply_thread_budget(k, pool, mc_planned, cover_planned);
  return run_monte_carlo(
      [&g, k, cover_planned](std::uint64_t, Rng& rng) {
        const std::vector<Vertex> starts = sample_stationary_starts(g, k, rng);
        const CoverSample sample =
            sample_multi_cover_time(g, starts, rng, cover_planned);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_planned, pool);
}

SpeedupEstimate estimate_speedup(const Graph& g, Vertex start, unsigned k,
                                 const McOptions& mc, const CoverOptions& cover,
                                 ThreadPool* pool) {
  const unsigned ks[1] = {k};
  return estimate_speedup_curve(g, start, ks, mc, cover, pool).front();
}

std::vector<SpeedupEstimate> estimate_speedup_curve(
    const Graph& g, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover, ThreadPool* pool) {
  // One implementation for both paths: the CSR substrate consumes the
  // exact draw sequence of the historical Graph path (same per-k seed
  // constants, same trial streams), so delegating changes no number —
  // proven by tests/test_substrate.cpp SpeedupCurveMatchesGraphEstimatorSeeding.
  return estimate_speedup_curve_to_target(CsrSubstrate(g), start,
                                          g.num_vertices(), ks, mc, cover,
                                          pool);
}

void BlockedRunTotals::absorb(const BlockWalkEngine& engine) {
  const ExtentCache::Stats& cache = engine.cache_stats();
  const BlockWalkEngine::Stats& run = engine.stats();
  ++trials;
  cache_loads += cache.loads;
  cache_hits += cache.hits;
  cache_evictions += cache.evictions;
  cache_bytes_loaded += cache.bytes_loaded;
  horizons += run.horizons;
  bucket_passes += run.bucket_passes;
  peak_trial_bytes_loaded =
      std::max(peak_trial_bytes_loaded, cache.bytes_loaded);
}

McResult estimate_cover_to_target_blocked(BlockWalkEngine& engine,
                                          Vertex start, unsigned k,
                                          Vertex target, const McOptions& mc,
                                          const CoverOptions& cover,
                                          BlockedRunTotals* totals) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  // The engine (and its extent cache) is shared across trials, so the
  // trial loop must stay on the caller: kLanes with no pool is
  // run_monte_carlo's serial index-ordered loop — the same per-trial
  // streams and reduction order as every other mode, so the estimate is
  // bit-identical to the in-core path.
  McOptions mc_serial = mc;
  mc_serial.parallelism = McParallelism::kLanes;
  CoverOptions cover_run = cover;
  cover_run.lane_shards = 0;
  cover_run.shard_pool = nullptr;
  return run_monte_carlo(
      [&engine, start, k, target, cover_run, totals](std::uint64_t, Rng& rng) {
        const std::vector<Vertex> starts(static_cast<std::size_t>(k), start);
        engine.reset(starts);
        // Counters restart per trial so run summaries report per-trial
        // aggregates instead of one monotone series; walking never reads
        // them, so this cannot perturb the v4 schedule.
        engine.reset_stats();
        const CoverSample sample =
            engine.run_until_visited(target, rng, cover_run);
        if (totals != nullptr) totals->absorb(engine);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_serial, nullptr);
}

std::vector<SpeedupEstimate> estimate_speedup_curve_to_target_blocked(
    BlockWalkEngine& engine, Vertex start, Vertex target,
    std::span<const unsigned> ks, const McOptions& mc,
    const CoverOptions& cover, BlockedRunTotals* totals) {
  MW_REQUIRE(!ks.empty(), "need at least one k");
  McOptions base = mc;
  base.seed = mix64(mc.seed ^ 0x1a1cULL);  // distinct stream for the baseline
  const McResult single = estimate_cover_to_target_blocked(
      engine, start, 1, target, base, cover, totals);

  std::vector<SpeedupEstimate> curve;
  curve.reserve(ks.size());
  for (unsigned k : ks) {
    MW_REQUIRE(k >= 1, "k must be >= 1");
    McOptions per_k = mc;
    per_k.seed = mix64(mc.seed ^ (0xbeef00ULL + k));
    const McResult multi =
        k == 1 ? single
               : estimate_cover_to_target_blocked(engine, start, k, target,
                                                  per_k, cover, totals);
    SpeedupEstimate est = combine_speedup(k, single, multi);
    if (k == 1) {
      // Same convention as the in-core curve: S^1 is exactly 1 with no
      // uncertainty and never flagged.
      est.half_width = 0.0;
      est.censored = 0;
    }
    curve.push_back(est);
  }
  return curve;
}

}  // namespace manywalks
