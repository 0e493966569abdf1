// Sampling starting vertices for k-walks.
//
// The paper's main question starts all k walks from ONE vertex, but its
// §1.1 comparison with Broder–Karlin–Raghavan–Upfal concerns walks started
// from the stationary distribution, and the placement ablation
// (`manywalks run fig_start_placement`) needs spread placements too. The
// per-trial start drawers of the estimators (stationary_starts,
// uniform_starts) live in mc/estimators.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace manywalks {

/// One vertex from the stationary distribution pi(v) = deg(v)/num_arcs,
/// given only a CSR offsets array: pick a uniform arc and binary-search
/// the row containing it. This is the form a memory-mapped graph
/// (storage/mapped_graph.hpp) samples through — the offsets span views
/// the file mapping and no Graph ever exists.
inline Vertex sample_stationary_vertex_csr(
    std::span<const std::uint64_t> offsets, Rng& rng) {
  MW_REQUIRE(offsets.size() >= 2 && offsets.back() > 0,
             "stationary sampling needs edges");
  const std::uint64_t arc = rng.uniform_below64(offsets.back());
  // offsets is sorted; find the row containing `arc`.
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), arc);
  return static_cast<Vertex>((it - offsets.begin()) - 1);
}

/// One vertex from the stationary distribution pi(v) = deg(v)/num_arcs
/// (delegates to the CSR form; the draw sequence is identical).
inline Vertex sample_stationary_vertex(const Graph& g, Rng& rng) {
  return sample_stationary_vertex_csr(g.offsets(), rng);
}

/// k starts spread over the graph by greedy k-center on BFS distances:
/// the first start is `seed_vertex`, each next start maximizes the hop
/// distance to the already chosen set. Deterministic. O(k (n + m)).
std::vector<Vertex> spread_starts(const Graph& g, unsigned k,
                                  Vertex seed_vertex);

}  // namespace manywalks
