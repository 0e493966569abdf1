// Cover-time sampling for single walks and k-walks (the paper's central
// random variables τ_i and τ^k_i), over explicit CSR graphs and over
// implicit substrates (graph/substrate.hpp).
//
// Timing convention: the starting vertices count as visited at t = 0, and
// in each round every token takes one step. The sampled value is the first
// round index t at which all vertices have been visited. (The paper's
// formal definition starts the visited set at X(1); the difference is a
// lower-order term and the conventional definition matches the closed forms
// we test against, e.g. C(cycle) = n(n-1)/2.)
//
// Every sampler here runs the engine's per-token lane streams (determinism
// contract v5).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/engine.hpp"
#include "walk/visit_tracker.hpp"

namespace manywalks {

/// One cover-time sample of a single walk from `start`. (All the samplers
/// here amortize engine construction via a per-thread WalkEngine; callers
/// needing finer control hold a WalkEngine directly.)
CoverSample sample_cover_time(const Graph& g, Vertex start, Rng& rng,
                              const CoverOptions& options = {});

/// One cover-time sample of a k-walk with explicit starting vertices (the
/// paper's walks all start at the same vertex, but Lemma 16 and the
/// stationary-start discussion need arbitrary starts).
CoverSample sample_multi_cover_time(const Graph& g,
                                    std::span<const Vertex> starts, Rng& rng,
                                    const CoverOptions& options = {});

/// One cover-time sample of k walks all starting at `start` (τ^k_start).
CoverSample sample_k_cover_time(const Graph& g, Vertex start, unsigned k,
                                Rng& rng, const CoverOptions& options = {});

/// Rounds until at least ceil(fraction * n) distinct vertices are visited.
CoverSample sample_partial_cover_time(const Graph& g,
                                      std::span<const Vertex> starts,
                                      double fraction, Rng& rng,
                                      const CoverOptions& options = {});

/// Number of distinct vertices visited after each recorded time step; used
/// for coverage-vs-time plots.
struct CoverageCurve {
  std::vector<std::uint64_t> times;
  std::vector<Vertex> visited;
  bool truncated = false;  ///< true iff options.step_cap cut the run short
};

/// Runs a k-walk for `total_steps` rounds recording coverage every
/// `record_every` rounds (and at t=0 and the final round). If
/// `options.step_cap` is smaller than `total_steps` the run stops at the
/// cap and the curve is marked truncated.
CoverageCurve sample_coverage_curve(const Graph& g,
                                    std::span<const Vertex> starts,
                                    std::uint64_t total_steps,
                                    std::uint64_t record_every, Rng& rng,
                                    const CoverOptions& options = {});

/// Per-vertex visit counts of a single walk over `num_steps` steps
/// (including the start's t=0 occupancy).
std::vector<std::uint64_t> sample_visit_counts(const Graph& g, Vertex start,
                                               std::uint64_t num_steps,
                                               Rng& rng,
                                               const CoverOptions& options = {});

// --- substrate overloads -----------------------------------------------------
//
// The same samplers over an implicit (or CSR-wrapping) substrate. On an
// implicit substrate no CSR is ever built: the per-thread engine's
// n/8-byte visit tracker is the only O(n) allocation, which is what lets
// the giant-graph experiments run at n = 10^7–10^8.

/// Reusable per-thread engine, one cached instance per substrate TYPE per
/// thread (cf. the pooled CSR engine in cover.cpp): a Monte-Carlo estimate
/// calls the samplers thousands of times on the same substrate from pool
/// worker threads, and rebinding is a value comparison away.
template <Substrate S>
WalkEngineT<S>& pooled_substrate_engine(const S& substrate) {
  thread_local std::optional<WalkEngineT<S>> engine;
  if (!engine.has_value() || !(engine->substrate() == substrate)) {
    engine.emplace(substrate);
  }
  return *engine;
}

/// One k-walk trial run until `target` distinct vertices are visited or
/// the cap is reached (the primitive the fixed-target giant experiments
/// sample: full cover at n = 10^8 is out of reach, partial cover is not).
/// This is the funnel every cover sampler delegates through.
template <Substrate S>
CoverSample sample_cover_to_target(const S& substrate,
                                   std::span<const Vertex> starts,
                                   Vertex target, Rng& rng,
                                   const CoverOptions& options = {}) {
  WalkEngineT<S>& engine = pooled_substrate_engine(substrate);
  engine.reset(starts);
  return engine.run_until_visited(target, rng, options);
}

template <Substrate S>
CoverSample sample_cover_time(const S& substrate, Vertex start, Rng& rng,
                              const CoverOptions& options = {}) {
  const Vertex starts[1] = {start};
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

template <Substrate S>
CoverSample sample_multi_cover_time(const S& substrate,
                                    std::span<const Vertex> starts, Rng& rng,
                                    const CoverOptions& options = {}) {
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

template <Substrate S>
CoverSample sample_k_cover_time(const S& substrate, Vertex start, unsigned k,
                                Rng& rng, const CoverOptions& options = {}) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  std::vector<Vertex> starts(k, start);
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

}  // namespace manywalks
