// Robustness to churn — the property the paper's introduction credits for
// random walks' popularity in ad-hoc / P2P networks: the algorithm needs no
// topology knowledge, so it keeps working while the network rewires under
// it.
//
// This example covers a random 8-regular network with k walks while, every
// round, a fraction of the edges is rewired by degree-preserving double
// edge swaps. A BFS-style sweep (represented here by its cost lower bound:
// a spanning traversal recomputed after every churn event) would have to
// restart; the k-walk cover time barely moves.
//
//   ./dynamic_network [--n 1024] [--k 8] [--churn 0.01] [--trials 60]
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/experiments.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "walk/cover_types.hpp"

namespace {

using namespace manywalks;

/// Mutable adjacency-list multigraph supporting uniform random stepping and
/// degree-preserving double edge swaps. (The immutable CSR Graph is the
/// fast path for static experiments; this structure is the dynamic
/// substrate.)
class DynamicGraph {
 public:
  explicit DynamicGraph(const Graph& g) {
    adjacency_.resize(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto row = g.neighbors(v);
      adjacency_[v].assign(row.begin(), row.end());
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (Vertex u : adjacency_[v]) {
        if (v < u) edges_.emplace_back(v, u);
      }
    }
  }

  Vertex num_vertices() const { return static_cast<Vertex>(adjacency_.size()); }
  std::size_t num_edges() const { return edges_.size(); }

  Vertex step(Vertex v, Rng& rng) const {
    const auto& row = adjacency_[v];
    return row[rng.uniform_below(static_cast<std::uint32_t>(row.size()))];
  }

  /// One degree-preserving double edge swap: picks edges (a,b), (c,d) and
  /// rewires to (a,d), (c,b) if that creates no loop or duplicate.
  /// Returns false (no change) when the sampled pair is incompatible.
  bool try_swap(Rng& rng) {
    const auto e1 = rng.uniform_below(static_cast<std::uint32_t>(edges_.size()));
    auto e2 = rng.uniform_below(static_cast<std::uint32_t>(edges_.size()));
    if (e1 == e2) return false;
    auto [a, b] = edges_[e1];
    auto [c, d] = edges_[e2];
    if (rng.bernoulli(0.5)) std::swap(c, d);
    // New edges: (a,d) and (c,b).
    if (a == d || c == b) return false;
    if (has_edge(a, d) || has_edge(c, b)) return false;
    remove_arc(a, b);
    remove_arc(b, a);
    remove_arc(c, d);
    remove_arc(d, c);
    adjacency_[a].push_back(d);
    adjacency_[d].push_back(a);
    adjacency_[c].push_back(b);
    adjacency_[b].push_back(c);
    edges_[e1] = {std::min(a, d), std::max(a, d)};
    edges_[e2] = {std::min(c, b), std::max(c, b)};
    return true;
  }

 private:
  bool has_edge(Vertex u, Vertex v) const {
    for (Vertex w : adjacency_[u]) {
      if (w == v) return true;
    }
    return false;
  }

  void remove_arc(Vertex u, Vertex v) {
    auto& row = adjacency_[u];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == v) {
        row[i] = row.back();
        row.pop_back();
        return;
      }
    }
  }

  std::vector<std::vector<Vertex>> adjacency_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
};

/// k-walk cover time under churn: every round, `swaps_per_round` double
/// edge swaps are applied before the tokens move. A trial that has not
/// covered after `cap` rounds reports steps = cap, covered = false.
CoverSample cover_under_churn(DynamicGraph graph, Vertex start, unsigned k,
                              unsigned swaps_per_round, Rng& rng,
                              std::uint64_t cap) {
  std::vector<Vertex> tokens(k, start);
  std::vector<bool> visited(graph.num_vertices(), false);
  visited[start] = true;
  Vertex covered = 1;
  for (std::uint64_t t = 1; t <= cap; ++t) {
    for (unsigned s = 0; s < swaps_per_round; ++s) graph.try_swap(rng);
    for (Vertex& token : tokens) {
      token = graph.step(token, rng);
      if (!visited[token]) {
        visited[token] = true;
        ++covered;
      }
    }
    if (covered == graph.num_vertices()) return {t, true};
  }
  return {cap, false};
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 1024;
  std::uint64_t k64 = 8;
  double churn = 0.01;
  std::uint64_t trials = 60;
  std::uint64_t seed = 23;

  ArgParser parser("dynamic_network",
                   "k-walk cover time under degree-preserving edge churn");
  parser.add_option("n", &n, "network size")
      .add_option("k", &k64, "number of walks")
      .add_option("churn", &churn,
                  "fraction of edges rewired per round (0 = static)")
      .add_option("trials", &trials, "trials per configuration")
      .add_option("seed", &seed, "random seed");
  if (!parser.parse(argc, argv)) return 1;

  const auto k = static_cast<unsigned>(k64);
  Rng graph_rng(mix64(seed));
  const Graph base = make_random_regular(static_cast<Vertex>(n), 8, graph_rng);
  const DynamicGraph dynamic_base(base);

  std::cout << "Network: " << describe(base) << ", k = " << k
            << " walks, churn sweep around " << churn << "\n\n";

  ResultTable table("churn",
                    "Cover time under churn (rounds; swaps/round = churn · m)");
  table.add_column("churn/round")
      .add_column("swaps/round")
      .add_column("cover time")
      .add_column("vs static");

  double static_mean = 0.0;
  for (const double rate : {0.0, churn / 10, churn, churn * 10}) {
    const auto swaps = static_cast<unsigned>(rate * static_cast<double>(base.num_edges()));
    RunningStats stats;
    std::uint64_t censored = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      Rng rng = make_trial_rng(mix64(seed ^ (0xd1aULL + swaps)), trial);
      const CoverSample sample =
          cover_under_churn(dynamic_base, 0, k, swaps, rng, 1'000'000);
      stats.add(static_cast<double>(sample.steps));
      if (!sample.covered) ++censored;
    }
    const auto ci = mean_confidence_interval(stats);
    if (rate == 0.0) static_mean = ci.mean;
    table.begin_row();
    table.real(rate, 3);
    table.count(swaps);
    table.mean_pm(ci.mean, ci.half_width, 4, censored);
    table.real(ci.mean / static_mean, 3);
  }
  std::cout << table_text(table)
            << censored_legend(count_censored_cells(table))
            << "\nExpected: the cover time is essentially flat in the churn "
               "rate — the walkers never\nneeded the topology to hold still "
               "(the intro's robustness argument). Any\nstructure-dependent "
               "traversal would restart after every swap.\n";
  return 0;
}
