#include "theory/finite_time.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace manywalks {

std::vector<double> visit_probability_within(const Graph& g, Vertex target,
                                             std::uint64_t t) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(target < n, "target out of range");
  MW_REQUIRE(g.num_vertices() > 0 && g.min_degree() > 0,
             "walk needs positive degrees");

  // survival[u] = Pr[walk from u has NOT visited target within the steps
  // evolved so far]; the target row is pinned to 0.
  std::vector<double> survival(n, 1.0);
  survival[target] = 0.0;
  std::vector<double> next(n, 0.0);
  for (std::uint64_t step = 0; step < t; ++step) {
    for (Vertex u = 0; u < n; ++u) {
      if (u == target) {
        next[u] = 0.0;
        continue;
      }
      double acc = 0.0;
      for (Vertex w : g.neighbors(u)) acc += survival[w];
      next[u] = acc / static_cast<double>(g.degree(u));
    }
    survival.swap(next);
  }
  std::vector<double> visit(n);
  for (Vertex u = 0; u < n; ++u) visit[u] = 1.0 - survival[u];
  return visit;
}

PairVisitProbability min_visit_probability_within(const Graph& g,
                                                  std::uint64_t t) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(n >= 2, "need at least two vertices");
  PairVisitProbability best;
  best.probability = 2.0;  // above any probability
  for (Vertex target = 0; target < n; ++target) {
    const auto visit = visit_probability_within(g, target, t);
    for (Vertex u = 0; u < n; ++u) {
      if (u == target) continue;
      if (visit[u] < best.probability) {
        best.probability = visit[u];
        best.from = u;
        best.to = target;
      }
    }
  }
  return best;
}

std::uint64_t markov_visit_horizon(double h_max) {
  MW_REQUIRE(std::isfinite(h_max) && h_max >= 0.0,
             "h_max must be finite and non-negative");
  const double t = 2.0 * h_max;
  const double nearest = std::round(t);
  if (std::abs(t - nearest) <= 1e-9 * std::max(1.0, nearest)) {
    return static_cast<std::uint64_t>(nearest);
  }
  return static_cast<std::uint64_t>(std::ceil(t));
}

double lemma16_cover_probability(double p_c, double p_h, unsigned k,
                                 unsigned ell) {
  MW_REQUIRE(p_c >= 0.0 && p_c <= 1.0, "p_c must be a probability");
  MW_REQUIRE(p_h >= 0.0 && p_h <= 1.0, "p_h must be a probability");
  MW_REQUIRE(k >= 1, "k must be >= 1");
  MW_REQUIRE(ell >= 1, "ell must be >= 1");
  const double miss = std::pow(1.0 - p_h, static_cast<double>(ell));
  return std::clamp(p_c * (1.0 - static_cast<double>(k) * miss), 0.0, 1.0);
}

}  // namespace manywalks
