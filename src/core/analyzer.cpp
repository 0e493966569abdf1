#include "core/analyzer.hpp"

#include <algorithm>

#include "graph/properties.hpp"
#include "linalg/markov.hpp"
#include "theory/bounds.hpp"
#include "theory/exact.hpp"
#include "util/check.hpp"

namespace manywalks {

namespace {

/// Farthest vertex from `source` by BFS (ties: smallest id).
Vertex farthest_vertex(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  Vertex best = source;
  std::uint32_t best_d = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != kUnreachable && dist[v] > best_d) {
      best_d = dist[v];
      best = v;
    }
  }
  return best;
}

Vertex min_degree_vertex(const Graph& g) {
  Vertex best = 0;
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) < g.degree(best)) best = v;
  }
  return best;
}

}  // namespace

HmaxEstimate measure_h_max(const Graph& g, const McOptions& mc,
                           std::uint64_t exact_limit, ThreadPool* pool) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(n >= 2, "h_max needs n >= 2");
  HmaxEstimate est;

  if (h_max_solved_exactly(g, exact_limit)) {
    const HittingExtremes ext = hitting_extremes(g);
    est.value = ext.h_max;
    est.exact = true;
    est.from = ext.argmax_from;
    est.to = ext.argmax_to;
    return est;
  }

  // Candidate extremal pairs: hitting times are largest INTO hard-to-reach
  // vertices, so aim at BFS-extremal and min-degree targets from far away.
  const Vertex a = farthest_vertex(g, 0);
  const Vertex b = farthest_vertex(g, a);
  const Vertex md = min_degree_vertex(g);
  const Vertex far_from_md = farthest_vertex(g, md);
  std::vector<std::pair<Vertex, Vertex>> pairs = {
      {a, b}, {b, a}, {0, a}, {far_from_md, md}, {a, md}};
  // A couple of random pairs guard against adversarial heuristics.
  Rng rng(mix64(mc.seed ^ 0xfeedULL));
  for (int i = 0; i < 3; ++i) {
    const Vertex u = rng.uniform_below(n);
    Vertex v = rng.uniform_below(n);
    while (v == u) v = rng.uniform_below(n);
    pairs.emplace_back(u, v);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  bool first = true;
  std::uint64_t salt = 0;
  for (const auto& [from, to] : pairs) {
    if (from == to) continue;
    McOptions per_pair = mc;
    per_pair.seed = mix64(mc.seed ^ (0xabcdULL + salt++));
    const McResult r = estimate_hitting_time(g, from, to, per_pair, {}, pool);
    if (first || r.ci.mean > est.value) {
      est.value = r.ci.mean;
      est.half_width = r.ci.half_width;
      est.from = from;
      est.to = to;
      first = false;
    }
  }
  est.exact = false;
  return est;
}

MixingMeasurement measure_mixing_time(const Graph& g, bool force_lazy,
                                      std::uint64_t max_steps,
                                      std::span<const Vertex> sources) {
  MixingMeasurement out;
  const bool lazy = force_lazy || is_bipartite(g);
  out.laziness = lazy ? 0.5 : 0.0;

  MixingOptions options;
  options.laziness = out.laziness;
  options.max_steps = max_steps;
  if (sources.empty()) {
    // Default probes: vertex 0 plus degree extremes (duplicates removed).
    std::vector<Vertex> probes = {0};
    Vertex mx = 0;
    Vertex mn = 0;
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      if (g.degree(v) > g.degree(mx)) mx = v;
      if (g.degree(v) < g.degree(mn)) mn = v;
    }
    for (Vertex v : {mx, mn}) {
      if (std::find(probes.begin(), probes.end(), v) == probes.end()) {
        probes.push_back(v);
      }
    }
    options.sources = std::move(probes);
  } else {
    options.sources.assign(sources.begin(), sources.end());
  }
  const MixingResult r = mixing_time(g, options);
  out.time = r.time;
  out.converged = r.converged;
  return out;
}

GraphProfile profile_graph(const FamilyInstance& instance,
                           const ProfileOptions& options, ThreadPool* pool) {
  GraphProfile profile;
  profile.cover = estimate_cover_time(instance.graph, instance.start,
                                      options.mc, options.cover, pool);
  profile.h_max = measure_h_max(instance.graph, options.mc,
                                options.hmax_exact_limit, pool);
  profile.mixing = measure_mixing_time(
      instance.graph, instance.needs_lazy_mixing, options.mixing_cap);
  profile.gap = cover_hitting_gap(profile.cover.ci.mean, profile.h_max.value);
  return profile;
}

}  // namespace manywalks
