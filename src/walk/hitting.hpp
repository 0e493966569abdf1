// Hitting-time sampling: h(u,v) for a single walk, and the k-walk variant
// (rounds until any token reaches the target). Every sampler is one run of
// the pooled lane engine (WalkEngineT::reset_for_hitting, determinism
// contract v6), with the cover samplers' round-granular timing: a sample is
// the first round after which some token stands on a target.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace manywalks {

struct HitOptions {
  /// Probability that a token stays put in a round; must lie in [0, 1).
  /// Any sampler that walks throws std::invalid_argument otherwise.
  double laziness = 0.0;
  std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max();
};

struct HitSample {
  std::uint64_t steps = 0;  ///< steps until the target was reached (or cap)
  bool hit = false;         ///< false iff the cap was reached first
};

/// Steps for a single walk from `from` to first reach `to`. If from == to,
/// the sample is 0 (the walk is already there).
HitSample sample_hitting_time(const Graph& g, Vertex from, Vertex to, Rng& rng,
                              const HitOptions& options = {});

/// Rounds for a k-walk (tokens at `starts`) until any token reaches `target`.
HitSample sample_multi_hitting_time(const Graph& g,
                                    std::span<const Vertex> starts,
                                    Vertex target, Rng& rng,
                                    const HitOptions& options = {});

/// Steps for a single walk from `from` to return to `from` (first return
/// time; expectation is num_arcs/deg(from) for connected graphs).
HitSample sample_return_time(const Graph& g, Vertex from, Rng& rng,
                             const HitOptions& options = {});

/// Rounds for a k-walk until any token lands on a vertex of the target set
/// (`in_target[v]` true). Models search for replicated content (paper §1).
/// A start inside the set hits at round 0; an empty set is rejected.
HitSample sample_multi_hitting_to_set(const Graph& g,
                                      std::span<const Vertex> starts,
                                      const std::vector<bool>& in_target,
                                      Rng& rng, const HitOptions& options = {});

}  // namespace manywalks
