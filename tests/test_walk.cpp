#include "walk/cover.hpp"
#include "walk/hitting.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "reference_walks.hpp"
#include "walk/engine.hpp"

namespace manywalks {
namespace {

TEST(StepWalk, StaysOnNeighbors) {
  const Graph g = make_cycle(6);
  Rng rng(1);
  Vertex v = 0;
  for (int i = 0; i < 1000; ++i) {
    const Vertex u = step_walk(g, v, rng);
    EXPECT_TRUE(g.has_edge(v, u));
    v = u;
  }
}

TEST(StepWalk, UniformOverNeighbors) {
  const Graph g = make_star(5);  // hub 0 with 4 leaves
  Rng rng(2);
  std::vector<int> counts(5, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[step_walk(g, 0, rng)];
  EXPECT_EQ(counts[0], 0);
  for (Vertex leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(static_cast<double>(counts[leaf]) / trials, 0.25, 0.02);
  }
}

TEST(StepWalk, SelfLoopProbability) {
  const Graph g = make_complete(4, /*with_self_loops=*/true);
  Rng rng(3);
  int stays = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    if (step_walk(g, 0, rng) == 0) ++stays;
  }
  EXPECT_NEAR(static_cast<double>(stays) / trials, 0.25, 0.02);
}

TEST(StepWalkLazy, ZeroLazinessNeverStays) {
  const Graph g = make_cycle(5);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) EXPECT_NE(step_walk_lazy(g, 0, rng, 0.0), 0u);
}

TEST(StepWalkLazy, LazinessFrequency) {
  const Graph g = make_cycle(5);
  Rng rng(5);
  int stays = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    if (step_walk_lazy(g, 0, rng, 0.3) == 0) ++stays;
  }
  EXPECT_NEAR(static_cast<double>(stays) / trials, 0.3, 0.02);
}

TEST(SampleCoverTime, TwoVerticesAlwaysOneStep) {
  const Graph g = make_path(2);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto s = sample_cover_time(g, 0, rng);
    EXPECT_TRUE(s.covered);
    EXPECT_EQ(s.steps, 1u);
  }
}

TEST(SampleCoverTime, DeterministicGivenRng) {
  const Graph g = make_cycle(9);
  Rng a(7);
  Rng b(7);
  const auto s1 = sample_cover_time(g, 0, a);
  const auto s2 = sample_cover_time(g, 0, b);
  EXPECT_EQ(s1.steps, s2.steps);
}

TEST(SampleCoverTime, CapCensorsSample) {
  const Graph g = make_cycle(101);
  Rng rng(8);
  CoverOptions options;
  options.step_cap = 10;  // far below the ~5000-step cover time
  const auto s = sample_cover_time(g, 0, rng, options);
  EXPECT_FALSE(s.covered);
  EXPECT_EQ(s.steps, 10u);
}

TEST(SampleCoverTime, SingleVertexGraphIsZero) {
  const Graph g = make_balanced_tree(2, 0);  // one vertex, no edges
  Rng rng(9);
  EXPECT_THROW(sample_cover_time(g, 0, rng), std::invalid_argument);
}

TEST(SampleKCoverTime, AllVerticesAsStartsCoverInstantly) {
  const Graph g = make_cycle(4);
  const std::vector<Vertex> starts = {0, 1, 2, 3};
  Rng rng(10);
  const auto s = sample_multi_cover_time(g, starts, rng);
  EXPECT_TRUE(s.covered);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleKCoverTime, TokensFasterOnAverage) {
  const Graph g = make_cycle(31);
  Rng rng(11);
  double single_total = 0;
  double multi_total = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    single_total += static_cast<double>(sample_cover_time(g, 0, rng).steps);
    multi_total +=
        static_cast<double>(sample_k_cover_time(g, 0, 4, rng).steps);
  }
  EXPECT_LT(multi_total, single_total);
}

TEST(SampleKCoverTime, RejectsEmptyStartList) {
  const Graph g = make_cycle(4);
  Rng rng(12);
  const std::vector<Vertex> none;
  EXPECT_THROW(sample_multi_cover_time(g, none, rng), std::invalid_argument);
}

TEST(SamplePartialCoverTime, FullFractionMatchesCover) {
  const Graph g = make_cycle(9);
  const std::vector<Vertex> starts = {0};
  Rng a(13);
  Rng b(13);
  const auto full = sample_partial_cover_time(g, starts, 1.0, a);
  const auto cover = sample_cover_time(g, 0, b);
  EXPECT_EQ(full.steps, cover.steps);
}

TEST(SamplePartialCoverTime, SmallFractionIsFaster) {
  const Graph g = make_cycle(51);
  const std::vector<Vertex> starts = {0};
  Rng rng(14);
  double half_total = 0;
  double full_total = 0;
  for (int i = 0; i < 100; ++i) {
    half_total += static_cast<double>(
        sample_partial_cover_time(g, starts, 0.5, rng).steps);
    full_total += static_cast<double>(sample_cover_time(g, 0, rng).steps);
  }
  EXPECT_LT(half_total, full_total * 0.6);
}

TEST(CoverageCurveTest, MonotoneAndBounded) {
  const Graph g = make_grid_2d(5);
  const std::vector<Vertex> starts = {0, 0};
  Rng rng(15);
  const auto curve = sample_coverage_curve(g, starts, 500, 50, rng);
  ASSERT_GE(curve.times.size(), 2u);
  EXPECT_EQ(curve.times.front(), 0u);
  EXPECT_EQ(curve.visited.front(), 1u);  // both tokens on the same vertex
  for (std::size_t i = 1; i < curve.visited.size(); ++i) {
    EXPECT_GE(curve.visited[i], curve.visited[i - 1]);
    EXPECT_LE(curve.visited[i], g.num_vertices());
  }
}

TEST(CoverageCurveTest, HonorsStepCap) {
  const Graph g = make_grid_2d(5);
  const std::vector<Vertex> starts = {0};
  CoverOptions options;
  options.step_cap = 120;
  Rng rng(20);
  const auto curve = sample_coverage_curve(g, starts, 500, 50, rng, options);
  EXPECT_TRUE(curve.truncated);
  EXPECT_EQ(curve.times.back(), 120u);  // stopped at the cap, not at 500
  // Record points: t=0, the record_every multiples, and the cap itself.
  const std::vector<std::uint64_t> expected_times = {0, 50, 100, 120};
  EXPECT_EQ(curve.times, expected_times);

  // An identical run whose cap is not binding is not truncated and consumes
  // the same RNG stream up to the cap.
  Rng rng2(20);
  const auto full = sample_coverage_curve(g, starts, 500, 50, rng2);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.times.back(), 500u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(full.visited[i], curve.visited[i]);
  }
}

TEST(CoverageCurveTest, MatchesLaneReferencePastCover) {
  // Each chunk of the curve is a run_until_visited(n) capped at the chunk
  // length, so chunks after the cover round run nothing. Every point, the
  // ones past cover included, must equal the lane reference walk's count
  // after that many rounds. complete(50) covers in about n·H_n/k = 75
  // rounds at k = 3; the curve runs 600, in chunks of 7 with a short last
  // one.
  const Graph g = make_complete(50);
  const std::vector<Vertex> starts = {0, 7, 7};
  Rng rng(21);
  const CoverageCurve curve = sample_coverage_curve(g, starts, 600, 7, rng);
  ASSERT_EQ(curve.times.back(), 600u);
  Rng ref_rng(21);
  LaneReferenceWalk<CsrSubstrate> reference(CsrSubstrate(g), starts);
  std::uint64_t t = 0;
  std::size_t covered_points = 0;
  for (std::size_t i = 0; i < curve.times.size(); ++i) {
    reference.run_for_steps(curve.times[i] - t, ref_rng);
    t = curve.times[i];
    EXPECT_EQ(curve.visited[i], reference.num_visited()) << "t=" << t;
    covered_points += curve.visited[i] == g.num_vertices() ? 1 : 0;
  }
  EXPECT_GT(covered_points, 10u);  // the run went well past its cover round
}

/// Per-vertex visit counts of a single walk from `start` over `steps`
/// steps, the start's t=0 occupancy included. Chunked engine runs equal
/// one run, so one round per call tallies exactly the landings of a
/// `steps`-round run.
std::vector<std::uint64_t> visit_counts(const Graph& g, Vertex start,
                                        std::uint64_t steps, Rng& rng) {
  WalkEngineT engine{CsrSubstrate(g)};
  const Vertex starts[1] = {start};
  engine.reset(starts);
  std::vector<std::uint64_t> counts(g.num_vertices(), 0);
  counts[start] = 1;
  for (std::uint64_t t = 0; t < steps; ++t) {
    engine.run_for_steps(1, rng);
    ++counts[engine.tokens()[0]];
  }
  return counts;
}

TEST(VisitCounts, SumEqualsStepsPlusOne) {
  const Graph g = make_cycle(7);
  Rng rng(16);
  const auto counts = visit_counts(g, 3, 1000, rng);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1001u);
  EXPECT_GE(counts[3], 1u);
}

TEST(VisitCounts, LongRunApproachesStationary) {
  const Graph g = make_star(5);  // pi(hub) = 1/2
  Rng rng(17);
  const std::uint64_t steps = 200000;
  const auto counts = visit_counts(g, 0, steps, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]) / static_cast<double>(steps),
              0.5, 0.02);
}

TEST(SampleHittingTime, SameVertexIsZero) {
  const Graph g = make_cycle(5);
  Rng rng(18);
  const auto s = sample_hitting_time(g, 2, 2, rng);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleHittingTime, NeighborOnK2IsOneStep) {
  const Graph g = make_path(2);
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    const auto s = sample_hitting_time(g, 0, 1, rng);
    EXPECT_EQ(s.steps, 1u);
  }
}

TEST(SampleHittingTime, CapCensors) {
  const Graph g = make_cycle(101);
  Rng rng(20);
  HitOptions options;
  options.step_cap = 5;
  const auto s = sample_hitting_time(g, 0, 50, rng, options);
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.steps, 5u);
}

TEST(SampleHittingTime, LazinessOutsideUnitIntervalThrows) {
  // laziness 1 would never move; the cap keeps a regression from hanging.
  const Graph g = make_cycle(9);
  for (const double laziness : {-0.5, 1.0, 1.5}) {
    HitOptions options;
    options.laziness = laziness;
    options.step_cap = 10;
    Rng rng(23);
    EXPECT_THROW(sample_hitting_time(g, 0, 4, rng, options),
                 std::invalid_argument);
    EXPECT_THROW(sample_return_time(g, 0, rng, options),
                 std::invalid_argument);
  }
}

TEST(SampleMultiHittingTime, TokenOnTargetIsZero) {
  const Graph g = make_cycle(6);
  const std::vector<Vertex> starts = {0, 3};
  Rng rng(21);
  const auto s = sample_multi_hitting_time(g, starts, 3, rng);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleMultiHittingTime, MoreTokensHitFaster) {
  const Graph g = make_cycle(41);
  Rng rng(22);
  double one_total = 0;
  double many_total = 0;
  const std::vector<Vertex> one = {0};
  const std::vector<Vertex> many = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 150; ++i) {
    one_total +=
        static_cast<double>(sample_multi_hitting_time(g, one, 20, rng).steps);
    many_total +=
        static_cast<double>(sample_multi_hitting_time(g, many, 20, rng).steps);
  }
  EXPECT_LT(many_total, one_total);
}

TEST(SampleReturnTime, K2AlwaysTwo) {
  const Graph g = make_path(2);
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sample_return_time(g, 0, rng).steps, 2u);
  }
}

TEST(SampleReturnTime, MeanMatchesKacFormula) {
  // E[return to v] = num_arcs / deg(v); star hub: 8/4 = 2, leaf: 8/1 = 8.
  const Graph g = make_star(5);
  Rng rng(24);
  double hub_total = 0;
  double leaf_total = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hub_total += static_cast<double>(sample_return_time(g, 0, rng).steps);
    leaf_total += static_cast<double>(sample_return_time(g, 1, rng).steps);
  }
  EXPECT_NEAR(hub_total / trials, 2.0, 0.05);
  EXPECT_NEAR(leaf_total / trials, 8.0, 0.4);
}

}  // namespace
}  // namespace manywalks
