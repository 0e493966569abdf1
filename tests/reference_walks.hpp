// Plain per-step reference walkers, the oracles of the walk engine tests.
//
//   * LaneReferenceWalk<S> spells out the engine's sampling contract
//     (determinism contract v5, docs/ARCHITECTURE.md "RNG scheme") one
//     token step at a time: a lane master drawn once from the caller's
//     stream, make_lane_rng(master, i) for lane i, a uniform01 draw before
//     the neighbor draw iff laziness > 0, lane_neighbor_index(lane, degree)
//     for the neighbor, and a std::vector<bool> visited set. The engine's
//     pipelined, stride, hoisted-draw and lane-major kernels must all
//     reproduce it exactly.
//   * shared_stream_cover is the other classic way to drive k walks: all
//     tokens consume ONE stream token by token (walker.hpp order). Its
//     samples differ from the engine's trial by trial, but the cover-time
//     DISTRIBUTION is the same — the baseline of the distribution tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/visit_tracker.hpp"
#include "walk/walker.hpp"

namespace manywalks {

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
/// `rng`, token by token in walker.hpp order.
inline CoverSample shared_stream_cover(const Graph& g,
                                       std::span<const Vertex> starts,
                                       Vertex target, Rng& rng,
                                       const CoverOptions& options = {}) {
  VisitTracker tracker(g.num_vertices());
  std::vector<Vertex> tokens(starts.begin(), starts.end());
  for (Vertex s : tokens) tracker.visit(s);
  CoverSample sample;
  if (tracker.num_visited() >= target) {
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
      tracker.visit(token);
    }
    if (tracker.num_visited() >= target) {
      sample.steps = t;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  return sample;
}

}  // namespace manywalks
