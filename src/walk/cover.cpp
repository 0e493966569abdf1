#include "walk/cover.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "walk/engine.hpp"

namespace manywalks {

// The Graph-facing samplers are thin delegations through CsrSubstrate:
// constructing the substrate per call revalidates walkability in O(1)
// (Graph caches its min degree) — the guard against the allocator handing
// a new graph the same blocks as a cached engine's — and the per-thread
// pooled WalkEngineT<CsrSubstrate> in cover.hpp rebinds on array identity.

CoverSample sample_cover_time(const Graph& g, Vertex start, Rng& rng,
                              const CoverOptions& options) {
  const Vertex starts[1] = {start};
  return sample_cover_to_target(CsrSubstrate(g), starts, g.num_vertices(),
                                rng, options);
}

CoverSample sample_multi_cover_time(const Graph& g,
                                    std::span<const Vertex> starts, Rng& rng,
                                    const CoverOptions& options) {
  return sample_cover_to_target(CsrSubstrate(g), starts, g.num_vertices(),
                                rng, options);
}

CoverSample sample_k_cover_time(const Graph& g, Vertex start, unsigned k,
                                Rng& rng, const CoverOptions& options) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  std::vector<Vertex> starts(k, start);
  return sample_cover_to_target(CsrSubstrate(g), starts, g.num_vertices(),
                                rng, options);
}

CoverSample sample_partial_cover_time(const Graph& g,
                                      std::span<const Vertex> starts,
                                      double fraction, Rng& rng,
                                      const CoverOptions& options) {
  MW_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1]");
  const auto target = static_cast<Vertex>(
      std::ceil(fraction * static_cast<double>(g.num_vertices())));
  return sample_cover_to_target(CsrSubstrate(g), starts,
                                std::max<Vertex>(target, 1), rng, options);
}

CoverageCurve sample_coverage_curve(const Graph& g,
                                    std::span<const Vertex> starts,
                                    std::uint64_t total_steps,
                                    std::uint64_t record_every, Rng& rng,
                                    const CoverOptions& options) {
  MW_REQUIRE(record_every >= 1, "record_every must be >= 1");
  MW_REQUIRE(options.laziness >= 0.0 && options.laziness < 1.0,
             "laziness must be in [0,1)");
  auto& engine = pooled_substrate_engine(CsrSubstrate(g));
  engine.reset(starts);

  CoverageCurve curve;
  curve.truncated = options.step_cap < total_steps;
  const std::uint64_t last = std::min(total_steps, options.step_cap);
  curve.times.push_back(0);
  curve.visited.push_back(engine.num_visited());
  CoverOptions chunk_options = options;
  std::uint64_t t = 0;
  while (t < last) {
    const std::uint64_t chunk = std::min<std::uint64_t>(record_every, last - t);
    chunk_options.step_cap = chunk;
    engine.run_until_visited(g.num_vertices(), rng, chunk_options);
    t += chunk;
    curve.times.push_back(t);
    curve.visited.push_back(engine.num_visited());
  }
  return curve;
}

}  // namespace manywalks
