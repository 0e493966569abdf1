// The lane-RNG layer of determinism contract v5 (util/rng.hpp LaneRngs /
// make_lane_rng / uniform_below_wide / lane_neighbor_index, and the walk
// engine's lane kernels):
//   * lane streams are deterministic, pairwise distinct across 10^4 lanes,
//     and never alias trial streams;
//   * the full-word Lemire draw and the pow2 mask draw are in-range and
//     pass chi-square uniformity;
//   * the engine is pinned by goldens, bit-identical between CSR and
//     CSR-ordered implicit engines, chunk-consistent, thread-invariant,
//     and statistically indistinguishable from a shared-stream walk (cycle
//     mean within CI of the closed form n(n-1)/2).
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"
#include "reference_walks.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"

namespace manywalks {
namespace {

// --- lane stream derivation --------------------------------------------------

TEST(LaneRng, SameInputsSameStream) {
  Rng a = make_lane_rng(42, 7);
  Rng b = make_lane_rng(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(LaneRng, TenThousandLanesNoPairwiseStateCollisions) {
  constexpr std::size_t kLanes = 10'000;
  LaneRngs lanes;
  lanes.reseed(0xfeedULL, kLanes);
  ASSERT_EQ(lanes.size(), kLanes);
  std::set<std::array<std::uint64_t, 4>> states;
  for (std::size_t i = 0; i < kLanes; ++i) {
    states.insert(lanes[i].state());
  }
  EXPECT_EQ(states.size(), kLanes);  // all 256-bit states distinct
}

TEST(LaneRng, LaneStreamsNeverAliasTrialStreams) {
  // The additive salt separates the two derivations: the same 64-bit
  // (seed, index) pair must yield different streams.
  for (std::uint64_t i = 0; i < 256; ++i) {
    Rng lane = make_lane_rng(5, i);
    Rng trial = make_trial_rng(5, i);
    EXPECT_NE(lane.state(), trial.state()) << i;
  }
}

TEST(LaneRng, ReseedReplacesAllLanes) {
  LaneRngs lanes;
  lanes.reseed(1, 4);
  const auto before = lanes[2].state();
  lanes.reseed(2, 4);
  EXPECT_NE(lanes[2].state(), before);
  lanes.reseed(1, 4);
  EXPECT_EQ(lanes[2].state(), before);
}

// --- full-word Lemire + mask draws -------------------------------------------

TEST(UniformBelowWide, RespectsBound) {
  Rng rng(11);
  for (std::uint32_t bound : {1u, 2u, 3u, 7u, 100u, 100'000'000u, 1u << 30}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_below_wide(bound), bound);
    }
  }
}

TEST(UniformBelowWide, BoundOneIsAlwaysZeroWithOneDraw) {
  Rng rng(11);
  Rng shadow(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_below_wide(1), 0u);
    shadow.next();
  }
  EXPECT_EQ(rng.state(), shadow.state());  // exactly one word per draw
}

TEST(UniformBelowWide, IsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint32_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_below_wide(kBuckets)];
  // Chi-square with 9 dof: 99.9th percentile ~ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(LaneNeighborIndex, Pow2DegreeIsMaskOfOneWord) {
  Rng rng(17);
  Rng shadow(17);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t draw = lane_neighbor_index(rng, 8);
    const auto expected = static_cast<std::uint32_t>(shadow.next()) & 7u;
    EXPECT_EQ(draw, expected);
  }
  EXPECT_EQ(rng.state(), shadow.state());
}

TEST(LaneNeighborIndex, ChiSquareUniformMaskAndWidePaths) {
  // degree 4 exercises the mask path, degree 7 the full-word Lemire path.
  for (std::uint32_t degree : {4u, 7u}) {
    SCOPED_TRACE(degree);
    Rng rng(19);
    constexpr int kSamples = 140000;
    std::vector<int> counts(degree, 0);
    for (int i = 0; i < kSamples; ++i) ++counts[lane_neighbor_index(rng, degree)];
    double chi2 = 0.0;
    const double expected = static_cast<double>(kSamples) / degree;
    for (int c : counts) {
      const double d = c - expected;
      chi2 += d * d / expected;
    }
    // 99.9th percentile: dof 3 ~ 16.3, dof 6 ~ 22.5.
    EXPECT_LT(chi2, degree == 4 ? 16.3 : 22.5);
  }
}

// --- substrate fast-path advertisements --------------------------------------

TEST(SubstrateTraits, RegularStrideDetectsRegularCsrGraphs) {
  const Graph cycle = make_cycle(16);
  EXPECT_EQ(CsrSubstrate(cycle).regular_stride(), 2u);
  const Graph expander = make_margulis_expander(8);
  EXPECT_EQ(CsrSubstrate(expander).regular_stride(), 8u);
  const Graph star = make_star(5);  // hub degree 4, leaves degree 1
  EXPECT_EQ(CsrSubstrate(star).regular_stride(), 0u);
}

// --- lane-mode engine goldens ------------------------------------------------

TEST(LaneMode, GoldenSamplesPinned) {
  // Fixed-seed lane-mode samples; any change to the lane derivation, the
  // draw policies, or the kernel's draw ORDER shows up here first.
  const CycleSubstrate sub64(64);
  const std::uint64_t expected_k3[6] = {683, 1227, 1594, 253, 1655, 619};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(0xfacadeULL, trial);
    EXPECT_EQ(sample_k_cover_time(sub64, 0, 3, rng).steps,
              expected_k3[trial])
        << trial;
  }
  const CycleSubstrate sub96(96);
  const std::uint64_t expected_target[6] = {398, 186, 497, 136, 322, 343};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(0xfacadeULL, trial);
    const std::vector<Vertex> starts(4, 0);
    EXPECT_EQ(sample_cover_to_target(sub96, starts, 48, rng).steps,
              expected_target[trial])
        << trial;
  }
}

// --- lane-mode structural contracts ------------------------------------------

TEST(LaneMode, CsrEngineBitIdenticalToImplicitEngine) {
  // lane_neighbor_index is a pure function of (lane stream, degree), so the
  // CSR and implicit engines of a CSR-ordered family consume identical
  // draws in lane mode too — stride fast path, mask fast path and all.
  const CoverOptions lane{};
  {
    const Vertex n = 96;
    const Graph g = make_cycle(n);
    WalkEngine csr(g);
    WalkEngineT<CycleSubstrate> impl{CycleSubstrate(n)};
    for (unsigned k : {1u, 3u, 16u}) {
      const std::vector<Vertex> starts(k, 0);
      for (std::uint64_t trial = 0; trial < 16; ++trial) {
        Rng rng_a = make_trial_rng(0xabcdULL, trial);
        Rng rng_b = make_trial_rng(0xabcdULL, trial);
        csr.reset(starts);
        impl.reset(starts);
        const CoverSample a = csr.run_until_visited(n, rng_a, lane);
        const CoverSample b = impl.run_until_visited(n, rng_b, lane);
        ASSERT_EQ(a.steps, b.steps) << "k=" << k << " trial=" << trial;
        ASSERT_EQ(rng_a.state(), rng_b.state())
            << "k=" << k << " trial=" << trial;
      }
    }
  }
  {
    const Vertex side = 8;
    const Graph g = make_grid_2d(side);
    WalkEngine csr(g);
    WalkEngineT<TorusSubstrate> impl{TorusSubstrate(side)};
    const std::vector<Vertex> starts(4, 0);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      Rng rng_a = make_trial_rng(0x7e57ULL, trial);
      Rng rng_b = make_trial_rng(0x7e57ULL, trial);
      csr.reset(starts);
      impl.reset(starts);
      const CoverSample a = csr.run_until_visited(side * side, rng_a, lane);
      const CoverSample b = impl.run_until_visited(side * side, rng_b, lane);
      ASSERT_EQ(a.steps, b.steps) << trial;
    }
  }
}

TEST(LaneMode, ChunkedRunForStepsMatchesOneRunAndConsumesOneDraw) {
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

  // The caller's stream moved by exactly the one lane-master draw.
  Rng reference(7);
  reference.next();
  EXPECT_EQ(rng_b.state(), reference.state());

  // A zero-round call neither seeds lanes nor consumes anything.
  WalkEngineT<TorusSubstrate> c(substrate);
  Rng rng_c(7);
  c.reset(starts);
  c.run_for_steps(0, rng_c);
  EXPECT_EQ(rng_c.state(), Rng(7).state());
  c.run_for_steps(16, rng_c);
  for (std::size_t i = 0; i < c.tokens().size(); ++i) {
    EXPECT_EQ(c.tokens()[i], b.tokens()[i]);
  }
}

TEST(LaneMode, RunForStepsAgreesWithRunUntilVisitedSchedule) {
  // run_for_steps uses the lane-major strip schedule on implicit
  // substrates, run_until_visited the round-major kernel; for the same
  // lane master both must produce the same final tokens and visited set.
  const CycleSubstrate substrate(512);
  const std::vector<Vertex> starts(8, 0);
  WalkEngineT<CycleSubstrate> via_steps(substrate);
  WalkEngineT<CycleSubstrate> via_cover(substrate);
  Rng rng_a(31);
  Rng rng_b(31);
  via_steps.reset(starts);
  via_steps.run_for_steps(200, rng_a);

  CoverOptions options;
  options.step_cap = 200;
  via_cover.reset(starts);
  const CoverSample sample =
      via_cover.run_until_visited(substrate.num_vertices(), rng_b, options);
  EXPECT_FALSE(sample.covered);  // 512-cycle needs far more than 200 rounds
  EXPECT_EQ(rng_a.state(), rng_b.state());
  EXPECT_EQ(via_steps.num_visited(), via_cover.num_visited());
  ASSERT_EQ(via_steps.tokens().size(), via_cover.tokens().size());
  for (std::size_t i = 0; i < via_steps.tokens().size(); ++i) {
    EXPECT_EQ(via_steps.tokens()[i], via_cover.tokens()[i]) << i;
  }
}

TEST(LaneMode, LazyChunksStayConsistent) {
  const CycleSubstrate substrate(64);
  const std::vector<Vertex> starts = {0, 32};
  WalkEngineT<CycleSubstrate> a(substrate);
  WalkEngineT<CycleSubstrate> b(substrate);
  Rng rng_a(3);
  Rng rng_b(3);
  a.reset(starts);
  a.run_for_steps(7, rng_a, 0.25);
  a.run_for_steps(9, rng_a, 0.25);
  b.reset(starts);
  b.run_for_steps(16, rng_b, 0.25);
  for (std::size_t i = 0; i < a.tokens().size(); ++i) {
    EXPECT_EQ(a.tokens()[i], b.tokens()[i]);
  }
}

TEST(LaneMode, BitReproducibleAcrossThreadCounts) {
  const CycleSubstrate substrate(1024);
  McOptions mc;
  mc.min_trials = 12;
  mc.max_trials = 12;
  mc.seed = 99;

  mc.threads = 1;
  const McResult serial =
      estimate_cover_to_target(substrate, 0, 4, /*target=*/256, mc,
                               CoverOptions{});
  mc.threads = 8;
  const McResult parallel =
      estimate_cover_to_target(substrate, 0, 4, /*target=*/256, mc,
                               CoverOptions{});
  EXPECT_DOUBLE_EQ(serial.ci.mean, parallel.ci.mean);
  EXPECT_EQ(serial.stats.count(), parallel.stats.count());
}

TEST(LaneMode, VisitCountsSumToTokenSteps) {
  const Graph g = make_cycle(32);
  WalkEngine engine(g);
  const std::vector<Vertex> starts = {0, 16};
  engine.reset(starts);
  std::vector<std::uint64_t> counts(g.num_vertices(), 0);
  Rng rng(11);
  engine.run_for_steps(100, rng, 0.0, counts.data());
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, 200u);  // 2 tokens x 100 rounds
}

// --- lane-mode distributions -------------------------------------------------

TEST(LaneMode, CycleCoverMeanWithinCiOfClosedForm) {
  // E[tau] on the n-cycle is exactly n(n-1)/2 for a single walk from any
  // start; the lane-mode sampler's mean must agree within its own CI.
  const Vertex n = 33;
  const double closed_form = 33.0 * 32.0 / 2.0;  // 528
  const CycleSubstrate substrate(n);
  constexpr std::uint64_t kTrials = 3000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    Rng rng = make_trial_rng(0xc10ULL, trial);
    const auto steps =
        static_cast<double>(sample_cover_time(substrate, 0, rng).steps);
    sum += steps;
    sum_sq += steps * steps;
  }
  const double mean = sum / kTrials;
  const double var = (sum_sq - sum * sum / kTrials) / (kTrials - 1);
  const double se = std::sqrt(var / kTrials);
  EXPECT_NEAR(mean, closed_form, 5.0 * se);
}

TEST(LaneMode, CoverDistributionIndistinguishableFromSharedStream) {
  // Same family, same trial budget: the engine's means and those of the
  // shared-stream reference walk must agree within combined standard
  // errors (they sample the same distribution from different streams).
  const CycleSubstrate substrate(32);
  const Graph g = make_cycle(32);
  const std::vector<Vertex> starts(4, 0);
  constexpr std::uint64_t kTrials = 1500;
  auto run = [&](bool shared_stream) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      Rng rng = make_trial_rng(0xd157ULL, trial);
      const auto steps = static_cast<double>(
          shared_stream ? shared_stream_cover(g, starts, 32, rng).steps
                        : sample_k_cover_time(substrate, 0, 4, rng).steps);
      sum += steps;
      sum_sq += steps * steps;
    }
    const double mean = sum / kTrials;
    const double var = (sum_sq - sum * sum / kTrials) / (kTrials - 1);
    return std::pair<double, double>(mean, std::sqrt(var / kTrials));
  };
  const auto [lane_mean, lane_se] = run(false);
  const auto [shared_mean, shared_se] = run(true);
  const double combined =
      std::sqrt(lane_se * lane_se + shared_se * shared_se);
  EXPECT_NEAR(lane_mean, shared_mean, 5.0 * combined);
}

TEST(LaneMode, CompleteGraphOccupancyUniform) {
  // K_9 (degree 8: mask path) and K_8 (degree 7: wide path): long-run
  // occupancy of the complete graph is uniform; 2% tolerance at 160k
  // token-steps is ~ 5 sigma.
  for (Vertex n : {9u, 8u}) {
    SCOPED_TRACE(n);
    const CompleteSubstrate substrate(n);
    WalkEngineT<CompleteSubstrate> engine(substrate);
    const std::vector<Vertex> starts(8, 0);
    engine.reset(starts);
    std::vector<std::uint64_t> counts(n, 0);
    Rng rng(5);
    constexpr std::uint64_t kRounds = 20000;
    engine.run_for_steps(kRounds, rng, 0.0, counts.data());
    const double expected =
        static_cast<double>(8 * kRounds) / static_cast<double>(n);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_NEAR(static_cast<double>(counts[v]) / expected, 1.0, 0.02)
          << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace manywalks
