#include "walk/hitting.hpp"

#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/check.hpp"
#include "walk/walker.hpp"

namespace manywalks {

namespace {

/// Steps every token once per round, in token order, until a round in
/// which some token satisfies `reached` or options.step_cap rounds have
/// run. The observability flush happens once per sample (never inside the
/// step loop), into the calling thread's scratch like the walk engine's:
/// one pointer test when observability is off.
template <class Reached>
HitSample walk_until(const Graph& g, std::span<Vertex> tokens, Rng& rng,
                     const HitOptions& options, Reached reached) {
  const bool lazy = options.laziness > 0.0;
  HitSample sample;
  sample.steps = options.step_cap;
  std::uint64_t t = 0;
  while (t < options.step_cap) {
    ++t;
    bool any = false;
    for (Vertex& token : tokens) {
      token = lazy ? step_walk_lazy(g, token, rng, options.laziness)
                   : step_walk(g, token, rng);
      any = any || reached(token);
    }
    if (any) {
      sample.steps = t;
      sample.hit = true;
      break;
    }
  }
  if (obs::RunObserver* const o = obs::observer();
      o != nullptr && o->metrics != nullptr) {
    obs::WorkerCounters& scratch = obs::thread_counters();
    scratch.add(obs::Metric::kRounds, sample.steps);
    scratch.add(obs::Metric::kSteps, sample.steps * tokens.size());
  }
  return sample;
}

/// Copies and validates k-walk starts; a start inside the target (per
/// `reached`) means the sample is a hit at round 0.
template <class Reached>
HitSample multi_walk_until(const Graph& g, std::span<const Vertex> starts,
                           Rng& rng, const HitOptions& options,
                           Reached reached) {
  MW_REQUIRE(!starts.empty(), "k-walk needs at least one token");
  std::vector<Vertex> tokens(starts.begin(), starts.end());
  for (Vertex s : tokens) {
    MW_REQUIRE(s < g.num_vertices(), "start vertex out of range");
    if (reached(s)) return HitSample{0, true};
  }
  return walk_until(g, std::span<Vertex>(tokens), rng, options, reached);
}

}  // namespace

HitSample sample_hitting_time(const Graph& g, Vertex from, Vertex to,
                              Rng& rng, const HitOptions& options) {
  require_walkable(g);
  MW_REQUIRE(from < g.num_vertices() && to < g.num_vertices(),
             "hitting endpoints out of range");
  if (from == to) return HitSample{0, true};
  Vertex v = from;
  return walk_until(g, std::span<Vertex>(&v, 1), rng, options,
                    [to](Vertex u) { return u == to; });
}

HitSample sample_multi_hitting_time(const Graph& g,
                                    std::span<const Vertex> starts,
                                    Vertex target, Rng& rng,
                                    const HitOptions& options) {
  require_walkable(g);
  MW_REQUIRE(target < g.num_vertices(), "target out of range");
  return multi_walk_until(g, starts, rng, options,
                          [target](Vertex u) { return u == target; });
}

HitSample sample_multi_hitting_to_set(const Graph& g,
                                      std::span<const Vertex> starts,
                                      const std::vector<bool>& in_target,
                                      Rng& rng, const HitOptions& options) {
  require_walkable(g);
  MW_REQUIRE(in_target.size() == g.num_vertices(),
             "target mask size must equal vertex count");
  return multi_walk_until(g, starts, rng, options,
                          [&in_target](Vertex u) { return in_target[u]; });
}

HitSample sample_return_time(const Graph& g, Vertex from, Rng& rng,
                             const HitOptions& options) {
  require_walkable(g);
  MW_REQUIRE(from < g.num_vertices(), "start vertex out of range");
  Vertex v = from;
  return walk_until(g, std::span<Vertex>(&v, 1), rng, options,
                    [from](Vertex u) { return u == from; });
}

}  // namespace manywalks
