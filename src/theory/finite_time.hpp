// Finite-time visit probabilities — the quantities of the paper's
// Lemma 16, its main technical tool: if a single walk of length T_c covers
// with probability p_c, and any vertex is visited within T_h steps from
// anywhere with probability p_h, then a k-walk of length T_c/k + ℓ·T_h
// covers with probability at least p_c (1 - k (1 - p_h)^ℓ).
//
// Visit probabilities within a deadline are computed EXACTLY by evolving
// survival vectors with the target made absorbing (O(t · arcs)).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace manywalks {

/// Pr[simple walk starting at u visits `target` within t steps], for every
/// start u at once. Entry [target] is 1 (visited at time 0).
std::vector<double> visit_probability_within(const Graph& g, Vertex target,
                                             std::uint64_t t);

struct PairVisitProbability {
  double probability = 1.0;
  Vertex from = 0;
  Vertex to = 0;
};

/// The Lemma 16 quantity p_h(T_h): the minimum over ordered pairs (u, v)
/// of Pr[walk from u visits v within t]. O(n · t · arcs) — intended for
/// oracle-scale graphs (n ≲ a few hundred).
PairVisitProbability min_visit_probability_within(const Graph& g,
                                                  std::uint64_t t);

/// The Markov horizon T_h for Lemma 16: the smallest integer t >= 2 h_max,
/// so a walk of t steps visits any vertex with probability >= 1/2. A
/// dense-solve h_max carries rounding noise around integral values (h_max
/// = (n-1)^2 on a path), so 2 h_max within 1e-9 relative of an integer
/// snaps to that integer before the ceiling.
std::uint64_t markov_visit_horizon(double h_max);

/// Lemma 16's guaranteed k-walk cover probability for total length
/// T_c/k + ℓ·T_h:  p_c · (1 - k (1 - p_h)^ℓ). Clamped to [0, 1].
double lemma16_cover_probability(double p_c, double p_h, unsigned k,
                                 unsigned ell);

}  // namespace manywalks
