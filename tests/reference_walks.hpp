// Plain per-step reference walkers, the oracles of the walk engine tests.
//
//   * LaneReferenceWalk<S> spells out the engine's sampling contract
//     (determinism contract v6, docs/ARCHITECTURE.md "RNG scheme") one
//     token step at a time: a lane master drawn once from the caller's
//     stream, make_lane_rng(master, i) for lane i, a uniform01 draw before
//     the neighbor draw iff laziness > 0, lane_neighbor_index(lane, degree)
//     for the neighbor, and a std::vector<bool> visited set. The engine's
//     pipelined, stride, hoisted-draw and lane-major kernels must all
//     reproduce it exactly, for cover runs and hitting runs alike.
//   * shared_stream_cover is the other classic way to drive k walks: all
//     tokens consume ONE stream token by token (step_walk order). Its
//     samples differ from the engine's trial by trial, but the cover-time
//     DISTRIBUTION is the same — the baseline of the distribution tests.
//   * step_walk / step_walk_lazy (one shared-stream step) are that
//     baseline's building blocks; the benchmarks' shared-stream cover loop
//     uses them too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/hitting.hpp"

namespace manywalks {

/// One step of the simple random walk on the shared stream: uniform over
/// the adjacency arcs of v (so parallel edges weight their endpoint
/// proportionally and a self loop is a 1/deg chance of staying).
inline Vertex step_walk(const Graph& g, Vertex v, Rng& rng) {
  return g.neighbor(v, rng.uniform_below(g.degree(v)));
}

/// Lazy variant: stays put with probability `laziness`, otherwise steps.
inline Vertex step_walk_lazy(const Graph& g, Vertex v, Rng& rng,
                             double laziness) {
  if (laziness > 0.0 && rng.uniform01() < laziness) return v;
  return step_walk(g, v, rng);
}

template <class S>
class LaneReferenceWalk {
 public:
  LaneReferenceWalk(const S& substrate, std::span<const Vertex> starts)
      : substrate_(substrate),
        tokens_(starts.begin(), starts.end()),
        visited_(substrate.num_vertices(), false) {
    for (Vertex s : tokens_) mark(s);
  }

  CoverSample run_until_visited(Vertex target, Rng& rng,
                                const CoverOptions& options = {}) {
    CoverSample sample;
    if (num_visited_ >= target) {
      sample.covered = true;
      return sample;
    }
    if (options.step_cap == 0) return sample;
    seed_lanes(rng);
    std::uint64_t t = 0;
    while (t < options.step_cap) {
      ++t;
      round(options.laziness, nullptr);
      if (num_visited_ >= target) {
        sample.steps = t;
        sample.covered = true;
        return sample;
      }
    }
    sample.steps = options.step_cap;
    return sample;
  }

  /// Rounds until the first round after which some token stands on a
  /// target (`in_target[v]`), or the cap. There is no round-0 check: a
  /// start on a target counts only once a later round lands there again,
  /// which is the return time when the start is the only target.
  HitSample run_until_hit(const std::vector<bool>& in_target, Rng& rng,
                          const HitOptions& options = {}) {
    HitSample sample;
    if (options.step_cap == 0) return sample;
    seed_lanes(rng);
    std::uint64_t t = 0;
    while (t < options.step_cap) {
      ++t;
      round(options.laziness, nullptr);
      if (std::ranges::any_of(tokens_,
                              [&](Vertex v) { return in_target[v]; })) {
        sample.steps = t;
        sample.hit = true;
        return sample;
      }
    }
    sample.steps = options.step_cap;
    return sample;
  }

  void run_for_steps(std::uint64_t rounds, Rng& rng, double laziness = 0.0,
                     std::uint64_t* visit_counts = nullptr) {
    if (rounds == 0) return;
    seed_lanes(rng);
    for (std::uint64_t t = 0; t < rounds; ++t) round(laziness, visit_counts);
  }

  std::span<const Vertex> tokens() const { return tokens_; }
  Vertex num_visited() const { return num_visited_; }
  bool visited(Vertex v) const { return visited_[v]; }

 private:
  void seed_lanes(Rng& rng) {
    if (!lanes_.empty()) return;
    const std::uint64_t master = rng.next();
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      lanes_.push_back(make_lane_rng(master, i));
    }
  }

  void round(double laziness, std::uint64_t* visit_counts) {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      Rng& lane = lanes_[i];
      Vertex& v = tokens_[i];
      const bool stay = laziness > 0.0 && lane.uniform01() < laziness;
      if (!stay) {
        const auto degree = static_cast<std::uint32_t>(substrate_.degree(v));
        v = substrate_.neighbor(v, lane_neighbor_index(lane, degree));
      }
      mark(v);
      if (visit_counts != nullptr) ++visit_counts[v];
    }
  }

  void mark(Vertex v) {
    if (!visited_[v]) {
      visited_[v] = true;
      ++num_visited_;
    }
  }

  S substrate_;
  std::vector<Vertex> tokens_;
  std::vector<Rng> lanes_;
  std::vector<bool> visited_;
  Vertex num_visited_ = 0;
};

/// One k-walk cover sample with every token drawing from the single stream
/// `rng`, token by token in step_walk order.
inline CoverSample shared_stream_cover(const Graph& g,
                                       std::span<const Vertex> starts,
                                       Vertex target, Rng& rng,
                                       const CoverOptions& options = {}) {
  std::vector<bool> visited(g.num_vertices(), false);
  Vertex num_visited = 0;
  const auto visit = [&](Vertex v) {
    if (!visited[v]) {
      visited[v] = true;
      ++num_visited;
    }
  };
  std::vector<Vertex> tokens(starts.begin(), starts.end());
  for (Vertex s : tokens) visit(s);
  CoverSample sample;
  if (num_visited >= target) {
    sample.covered = true;
    return sample;
  }
  const bool lazy = options.laziness > 0.0;
  std::uint64_t t = 0;
  while (t < options.step_cap) {
    ++t;
    for (Vertex& token : tokens) {
      token = lazy ? step_walk_lazy(g, token, rng, options.laziness)
                   : step_walk(g, token, rng);
      visit(token);
    }
    if (num_visited >= target) {
      sample.steps = t;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  return sample;
}

}  // namespace manywalks
