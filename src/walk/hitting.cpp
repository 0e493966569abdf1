#include "walk/hitting.hpp"

#include <vector>

#include "graph/substrate.hpp"
#include "util/check.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"

namespace manywalks {

namespace {

/// Runs k walks from `starts` on the pooled lane engine until the first
/// round in which some token stands on one of `targets`, or the cap. The
/// engine marks every other vertex visited, so the visited count grows
/// exactly when a token lands on a target; run_until_visited flushes the
/// walk.rounds/walk.steps metrics like every other engine run.
HitSample run_to_targets(const CsrSubstrate& substrate,
                         std::span<const Vertex> starts,
                         std::span<const Vertex> targets, Rng& rng,
                         const HitOptions& options) {
  WalkEngineT<CsrSubstrate>& engine = pooled_substrate_engine(substrate);
  engine.reset_for_hitting(starts, targets);
  const CoverSample sample =
      engine.run_until_visited(engine.num_visited() + 1, rng,
                               CoverOptions{options.laziness, options.step_cap});
  return HitSample{sample.steps, sample.covered};
}

/// Validates k-walk starts; true iff one of them is already on a target
/// (per `reached`), which makes the sample a hit at round 0.
template <class Reached>
bool starts_on_target(const Graph& g, std::span<const Vertex> starts,
                      Reached reached) {
  MW_REQUIRE(!starts.empty(), "k-walk needs at least one token");
  for (Vertex s : starts) {
    MW_REQUIRE(s < g.num_vertices(), "start vertex out of range");
    if (reached(s)) return true;
  }
  return false;
}

}  // namespace

HitSample sample_hitting_time(const Graph& g, Vertex from, Vertex to,
                              Rng& rng, const HitOptions& options) {
  const CsrSubstrate substrate(g);
  MW_REQUIRE(from < g.num_vertices() && to < g.num_vertices(),
             "hitting endpoints out of range");
  if (from == to) return HitSample{0, true};
  const Vertex starts[1] = {from};
  const Vertex targets[1] = {to};
  return run_to_targets(substrate, starts, targets, rng, options);
}

HitSample sample_multi_hitting_time(const Graph& g,
                                    std::span<const Vertex> starts,
                                    Vertex target, Rng& rng,
                                    const HitOptions& options) {
  const CsrSubstrate substrate(g);
  MW_REQUIRE(target < g.num_vertices(), "target out of range");
  if (starts_on_target(g, starts, [target](Vertex u) { return u == target; })) {
    return HitSample{0, true};
  }
  const Vertex targets[1] = {target};
  return run_to_targets(substrate, starts, targets, rng, options);
}

HitSample sample_multi_hitting_to_set(const Graph& g,
                                      std::span<const Vertex> starts,
                                      const std::vector<bool>& in_target,
                                      Rng& rng, const HitOptions& options) {
  const CsrSubstrate substrate(g);
  MW_REQUIRE(in_target.size() == g.num_vertices(),
             "target mask size must equal vertex count");
  if (starts_on_target(g, starts,
                       [&in_target](Vertex u) { return in_target[u]; })) {
    return HitSample{0, true};
  }
  // An empty set cannot take the exit above; reset_for_hitting rejects it.
  std::vector<Vertex> targets;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in_target[v]) targets.push_back(v);
  }
  return run_to_targets(substrate, starts, targets, rng, options);
}

HitSample sample_return_time(const Graph& g, Vertex from, Rng& rng,
                             const HitOptions& options) {
  const CsrSubstrate substrate(g);
  MW_REQUIRE(from < g.num_vertices(), "start vertex out of range");
  // The start is its own target, so it begins unvisited: the walk must
  // land on it again at some round t >= 1.
  const Vertex only[1] = {from};
  return run_to_targets(substrate, only, only, rng, options);
}

}  // namespace manywalks
