#include "mc/estimators.hpp"

#include <cmath>
#include <memory>

#include "util/check.hpp"
#include "walk/block_engine.hpp"

namespace manywalks {

// The Graph overloads delegate through CsrSubstrate: the substrate path
// consumes the exact draw sequence of a Graph trial (same trial streams,
// same thread-budget plan), so delegating changes no number.

McResult estimate_cover_time(const Graph& g, Vertex start, const McOptions& mc,
                             const CoverOptions& cover, ThreadPool* pool) {
  return estimate_cover_time(CsrSubstrate(g), start, mc, cover, pool);
}

McResult estimate_k_cover_time(const Graph& g, Vertex start, unsigned k,
                               const McOptions& mc, const CoverOptions& cover,
                               ThreadPool* pool) {
  return estimate_k_cover_time(CsrSubstrate(g), start, k, mc, cover, pool);
}

McResult estimate_multi_cover_time(const Graph& g,
                                   std::span<const Vertex> starts,
                                   const McOptions& mc,
                                   const CoverOptions& cover,
                                   ThreadPool* pool) {
  return estimate_cover_to_target(CsrSubstrate(g), starts, g.num_vertices(),
                                  mc, cover, pool);
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
  return estimate_stationary_start_cover(CsrSubstrate(g), g.offsets(), k, mc,
                                         cover, pool);
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
  return estimate_speedup_curve(CsrSubstrate(g), start, ks, mc, cover, pool);
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

Vertex BlockedTrials::num_vertices() const { return engine.num_vertices(); }

CoverSample sample_cover_to_target(const BlockedTrials& walker,
                                   std::span<const Vertex> starts,
                                   Vertex target, Rng& rng,
                                   const CoverOptions& options) {
  walker.engine.reset(starts);
  // Counters restart per trial so run summaries report per-trial
  // aggregates instead of one monotone series.
  walker.engine.reset_stats();
  const CoverSample sample =
      walker.engine.run_until_visited(target, rng, options);
  if (walker.totals != nullptr) walker.totals->absorb(walker.engine);
  return sample;
}

}  // namespace manywalks
