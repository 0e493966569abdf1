// The substrate layer's contracts (graph/substrate.hpp):
//   * each implicit substrate enumerates exactly the CSR graph's arc
//     multiset (same walk law), and cycle/torus/complete in exactly CSR
//     order (bit-identical RNG streams);
//   * WalkEngineT over an implicit substrate reproduces the CSR engine's
//     samples where the order matches, and is itself deterministic and
//     chunk-consistent everywhere (the per-substrate lane reference oracle
//     lives in tests/test_engine.cpp);
//   * the substrate samplers/estimators are deterministic, honor the
//     partial-cover target, and run at giant n with no CSR allocation.
#include "graph/substrate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"

namespace manywalks {
namespace {

// --- concept + accessor contracts -------------------------------------------

static_assert(Substrate<CsrSubstrate>);
static_assert(Substrate<CycleSubstrate>);
static_assert(Substrate<TorusSubstrate>);
static_assert(Substrate<HypercubeSubstrate>);
static_assert(Substrate<CompleteSubstrate>);
static_assert(!Substrate<Graph>);

/// Asserts substrate.neighbor(v, i) == g.neighbor(v, i) for every arc —
/// the strict (order-preserving) binding that makes RNG streams
/// bit-identical between the substrate and CSR engines.
template <Substrate S>
void expect_csr_ordered(const S& substrate, const Graph& g) {
  ASSERT_EQ(substrate.num_vertices(), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(substrate.degree(v), g.degree(v)) << "v=" << v;
    for (Vertex i = 0; i < g.degree(v); ++i) {
      ASSERT_EQ(substrate.neighbor(v, i), g.neighbor(v, i))
          << "v=" << v << " i=" << i;
    }
  }
}

/// Weaker binding: same neighbor multiset per vertex (same walk law; the
/// hypercube's bit order is a per-vertex permutation of the CSR row).
template <Substrate S>
void expect_same_multiset(const S& substrate, const Graph& g) {
  ASSERT_EQ(substrate.num_vertices(), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(substrate.degree(v), g.degree(v)) << "v=" << v;
    std::vector<Vertex> from_substrate;
    for (Vertex i = 0; i < substrate.degree(v); ++i) {
      from_substrate.push_back(substrate.neighbor(v, i));
    }
    std::sort(from_substrate.begin(), from_substrate.end());
    const auto row = g.neighbors(v);
    const std::vector<Vertex> from_csr(row.begin(), row.end());
    ASSERT_EQ(from_substrate, from_csr) << "v=" << v;
  }
}

TEST(Substrates, CycleMatchesCsrOrder) {
  for (Vertex n : {3u, 4u, 5u, 64u, 257u}) {
    SCOPED_TRACE(n);
    expect_csr_ordered(CycleSubstrate(n), make_cycle(n));
  }
}

TEST(Substrates, TorusMatchesCsrOrder) {
  // 3 has a single interior vertex; 4 and 256 are powers of two, where
  // the division magic is exactly 2^64 / side.
  for (Vertex side : {3u, 4u, 5u, 8u, 13u, 64u, 256u, 257u}) {
    SCOPED_TRACE(side);
    expect_csr_ordered(TorusSubstrate(side), make_grid_2d(side));
  }
}

/// The torus row of v the plain way: a hardware divide, the four
/// wrap-around neighbors, then a sort into CSR order.
std::vector<Vertex> torus_row_by_divide(Vertex side, Vertex v) {
  const Vertex x = v / side;
  const Vertex y = v % side;
  std::vector<Vertex> row = {((x + side - 1) % side) * side + y,
                             ((x + 1) % side) * side + y,
                             x * side + (y + side - 1) % side,
                             x * side + (y + 1) % side};
  std::sort(row.begin(), row.end());
  return row;
}

TEST(Substrates, TorusAtLargestSideMatchesDivideReference) {
  // side 65535 is the largest whose side^2 fits a Vertex; its CSR would
  // not fit in memory, so the reference is computed per vertex.
  const Vertex side = 65535;
  const TorusSubstrate torus(side);
  ASSERT_EQ(torus.num_vertices(), side * side);
  const auto expect_row = [&](Vertex x, Vertex y) {
    const Vertex v = x * side + y;
    const std::vector<Vertex> expected = torus_row_by_divide(side, v);
    for (Vertex i = 0; i < 4; ++i) {
      ASSERT_EQ(torus.neighbor(v, i), expected[i]) << "v=" << v << " i=" << i;
    }
  };
  for (Vertex t = 0; t < side; ++t) {  // every border vertex
    expect_row(0, t);
    expect_row(side - 1, t);
    expect_row(t, 0);
    expect_row(t, side - 1);
  }
  // A strided sample of the interior (the prime stride sweeps x and y
  // over their whole ranges), plus the interior's four corners.
  const std::uint64_t n = torus.num_vertices();
  for (std::uint64_t v = 0; v < n; v += 65521) {
    expect_row(static_cast<Vertex>(v / side), static_cast<Vertex>(v % side));
  }
  for (Vertex x : {1u, side - 2}) {
    for (Vertex y : {1u, side - 2}) expect_row(x, y);
  }
}

TEST(Substrates, CompleteMatchesCsrOrder) {
  for (Vertex n : {2u, 3u, 5u, 32u}) {
    SCOPED_TRACE(n);
    expect_csr_ordered(CompleteSubstrate(n), make_complete(n));
  }
}

TEST(Substrates, HypercubeMatchesCsrMultiset) {
  for (unsigned d : {1u, 3u, 6u}) {
    SCOPED_TRACE(d);
    expect_same_multiset(HypercubeSubstrate(d), make_hypercube(d));
  }
}

TEST(Substrates, CsrSubstrateReadsTheGraphArrays) {
  const Graph g = make_margulis_expander(4);  // loops + parallel edges
  expect_csr_ordered(CsrSubstrate(g), g);
}

TEST(Substrates, EqualityTracksParameters) {
  EXPECT_EQ(CycleSubstrate(10), CycleSubstrate(10));
  EXPECT_NE(CycleSubstrate(10), CycleSubstrate(11));
  EXPECT_EQ(TorusSubstrate(5), TorusSubstrate(5));
  EXPECT_NE(TorusSubstrate(5), TorusSubstrate(6));
  const Graph a = make_cycle(16);
  const Graph b = make_cycle(16);  // same shape, different arrays
  EXPECT_EQ(CsrSubstrate(a), CsrSubstrate(a));
  EXPECT_NE(CsrSubstrate(a), CsrSubstrate(b));
}

TEST(Substrates, ConstructorsValidate) {
  EXPECT_THROW(CycleSubstrate(2), std::invalid_argument);
  EXPECT_THROW(TorusSubstrate(2), std::invalid_argument);
  EXPECT_THROW(TorusSubstrate(1u << 17), std::invalid_argument);  // n overflow
  EXPECT_THROW(HypercubeSubstrate(0), std::invalid_argument);
  EXPECT_THROW(HypercubeSubstrate(32), std::invalid_argument);
  EXPECT_THROW(CompleteSubstrate(1), std::invalid_argument);

  // CsrSubstrate upholds the walkable-by-construction invariant too: a
  // degree-0 vertex would make neighbor() read past its empty row, so
  // binding such a graph must fail before any engine can walk it.
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 isolated
  const Graph unwalkable = builder.build();
  EXPECT_THROW(CsrSubstrate{unwalkable}, std::invalid_argument);
}

// --- engine equivalence -------------------------------------------------------

/// Runs the same trials through the CSR engine bound to g and through
/// WalkEngineT<S>; with a CSR-ordered substrate both the sampled cover
/// times and the RNG states must match draw for draw.
template <Substrate S>
void expect_engine_bit_identical(const S& substrate, const Graph& g,
                                 unsigned k, Vertex target,
                                 double laziness = 0.0) {
  CoverOptions options;
  options.laziness = laziness;
  WalkEngineT csr_engine{CsrSubstrate(g)};
  WalkEngineT<S> sub_engine(substrate);
  const std::vector<Vertex> starts(k, 0);
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    Rng csr_rng = make_trial_rng(0x5eedULL, trial);
    Rng sub_rng = make_trial_rng(0x5eedULL, trial);
    csr_engine.reset(starts);
    sub_engine.reset(starts);
    const CoverSample expected =
        csr_engine.run_until_visited(target, csr_rng, options);
    const CoverSample actual =
        sub_engine.run_until_visited(target, sub_rng, options);
    ASSERT_EQ(expected.steps, actual.steps) << "trial=" << trial;
    ASSERT_EQ(expected.covered, actual.covered) << "trial=" << trial;
    ASSERT_EQ(csr_rng.state(), sub_rng.state()) << "trial=" << trial;
  }
}

TEST(SubstrateEngine, CycleBitIdenticalToCsrEngine) {
  const Vertex n = 96;
  for (unsigned k : {1u, 3u, 16u}) {
    SCOPED_TRACE(k);
    expect_engine_bit_identical(CycleSubstrate(n), make_cycle(n), k, n);
  }
}

TEST(SubstrateEngine, TorusBitIdenticalToCsrEngine) {
  for (Vertex side : {3u, 8u, 33u}) {
    for (unsigned k : {1u, 4u, 64u}) {
      for (double laziness : {0.0, 0.3}) {
        SCOPED_TRACE(testing::Message() << "side=" << side << " k=" << k
                                        << " laziness=" << laziness);
        expect_engine_bit_identical(TorusSubstrate(side), make_grid_2d(side),
                                    k, side * side, laziness);
      }
    }
  }
}

TEST(SubstrateEngine, CompleteBitIdenticalToCsrEngine) {
  expect_engine_bit_identical(CompleteSubstrate(32), make_complete(32), 2, 32);
}

TEST(SubstrateEngine, PartialTargetsBitIdenticalToo) {
  const Vertex n = 512;
  expect_engine_bit_identical(CycleSubstrate(n), make_cycle(n), 8,
                              /*target=*/n / 4);
}

TEST(SubstrateEngine, RunForStepsChunksMatchOneRun) {
  const TorusSubstrate substrate(8);
  const std::vector<Vertex> starts = {0, 5, 9};
  WalkEngineT<TorusSubstrate> a(substrate);
  WalkEngineT<TorusSubstrate> b(substrate);
  Rng rng_a(7);
  Rng rng_b(7);
  a.reset(starts);
  a.run_for_steps(10, rng_a);
  a.run_for_steps(6, rng_a);
  b.reset(starts);
  b.run_for_steps(16, rng_b);
  EXPECT_EQ(rng_a.state(), rng_b.state());
  ASSERT_EQ(a.tokens().size(), b.tokens().size());
  for (std::size_t i = 0; i < a.tokens().size(); ++i) {
    EXPECT_EQ(a.tokens()[i], b.tokens()[i]);
  }
  EXPECT_EQ(a.num_visited(), b.num_visited());
}

// --- samplers + estimators ----------------------------------------------------

TEST(SubstrateSamplers, MatchGraphSamplersOnOrderedFamilies) {
  const Vertex n = 128;
  const Graph g = make_cycle(n);
  const CycleSubstrate substrate(n);
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng graph_rng = make_trial_rng(3, trial);
    Rng sub_rng = make_trial_rng(3, trial);
    const CoverSample expected = sample_k_cover_time(g, 0, 4, graph_rng);
    const CoverSample actual = sample_k_cover_time(substrate, 0, 4, sub_rng);
    EXPECT_EQ(expected.steps, actual.steps) << "trial=" << trial;
  }
}

TEST(SubstrateSamplers, PooledEngineRebindsAcrossSubstrates) {
  // Alternating between two substrates of the same type must rebind the
  // per-thread engine and reproduce the single-substrate sequences.
  const CycleSubstrate small(64);
  const CycleSubstrate large(96);
  std::vector<std::uint64_t> lone_small, lone_large;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(1, trial);
    lone_small.push_back(sample_cover_time(small, 0, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(2, trial);
    lone_large.push_back(sample_k_cover_time(large, 0, 3, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng_small = make_trial_rng(1, trial);
    EXPECT_EQ(sample_cover_time(small, 0, rng_small).steps, lone_small[trial]);
    Rng rng_large = make_trial_rng(2, trial);
    EXPECT_EQ(sample_k_cover_time(large, 0, 3, rng_large).steps,
              lone_large[trial]);
  }
}

TEST(SubstrateEstimators, DeterministicAcrossThreadCounts) {
  const CycleSubstrate substrate(1024);
  McOptions mc;
  mc.min_trials = 12;
  mc.max_trials = 12;
  mc.seed = 99;

  mc.threads = 1;
  const McResult serial =
      estimate_cover_to_target(substrate, 0, 4, /*target=*/256, mc);
  mc.threads = 8;
  const McResult parallel =
      estimate_cover_to_target(substrate, 0, 4, /*target=*/256, mc);
  EXPECT_DOUBLE_EQ(serial.ci.mean, parallel.ci.mean);
  EXPECT_EQ(serial.stats.count(), parallel.stats.count());
  EXPECT_GT(serial.ci.mean, 0.0);
}

TEST(SubstrateEstimators, SpeedupCurveMatchesGraphEstimatorSeeding) {
  // Same seeds, CSR-ordered substrate → the substrate curve must equal the
  // Graph-based estimator's numbers exactly.
  const Vertex n = 128;
  const Graph g = make_cycle(n);
  const CycleSubstrate substrate(n);
  const std::vector<unsigned> ks = {1, 2, 8};
  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 8;
  mc.seed = 7;
  ThreadPool pool(2);
  const auto from_graph = estimate_speedup_curve(g, 0, ks, mc, {}, &pool);
  const auto from_substrate =
      estimate_speedup_curve(substrate, 0, ks, mc, {}, &pool);
  ASSERT_EQ(from_graph.size(), from_substrate.size());
  for (std::size_t i = 0; i < from_graph.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_graph[i].speedup, from_substrate[i].speedup) << i;
    EXPECT_DOUBLE_EQ(from_graph[i].multi.ci.mean,
                     from_substrate[i].multi.ci.mean)
        << i;
  }
}

TEST(SubstrateEstimators, CensoredPartialCoverIsFlagged) {
  // A step cap below the target's reach censors every trial; the estimate
  // must say so and never certify the CI target.
  const CycleSubstrate substrate(4096);
  CoverOptions cover;
  cover.step_cap = 4;  // nowhere near covering 1024 vertices
  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 8;
  const McResult result =
      estimate_cover_to_target(substrate, 0, 1, /*target=*/1024, mc, cover);
  EXPECT_EQ(result.censored, 8u);
  EXPECT_FALSE(result.target_met);
  EXPECT_DOUBLE_EQ(result.ci.mean, 4.0);  // the cap, an explicit lower bound

  const SpeedupEstimate est = combine_speedup(2, result, result);
  EXPECT_EQ(est.censored, 16u);

  // In a curve, the k = 1 point is the ratio of the baseline with itself:
  // exactly 1 even under censoring, so only the k > 1 ratios are flagged.
  const std::vector<unsigned> ks = {1, 2};
  const auto curve = estimate_speedup_curve_to_target(
      substrate, 0, /*target=*/1024, ks, mc, cover);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve[0].censored, 0u);
  EXPECT_DOUBLE_EQ(curve[0].speedup, 1.0);
  EXPECT_GT(curve[1].censored, 0u);
}

TEST(SubstrateEstimators, GiantImplicitCycleRunsWithoutCsr) {
  // n = 10^7: a CSR graph would be ~160 MB; the substrate trial allocates
  // only the pooled engine's n/8-byte tracker and finishes a partial-cover
  // estimate quickly.
  const Vertex n = 10'000'000;
  const CycleSubstrate substrate(n);
  CoverOptions cover;
  cover.step_cap = 64ULL * 2000 * 2000;
  McOptions mc;
  mc.min_trials = 2;
  mc.max_trials = 2;
  mc.threads = 2;
  const McResult result =
      estimate_cover_to_target(substrate, 0, 8, /*target=*/2000, mc, cover);
  EXPECT_EQ(result.censored, 0u);
  // k walks spread ~ sqrt(t): visiting 2000 distinct vertices needs at
  // least ~(d/2)² / k... sanity-check the order of magnitude only.
  EXPECT_GT(result.ci.mean, 1000.0);
  EXPECT_LT(result.ci.mean, 4e6);
}

}  // namespace
}  // namespace manywalks
