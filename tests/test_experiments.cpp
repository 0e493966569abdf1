#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace manywalks {
namespace {

ExperimentOptions quick_options(std::uint64_t trials) {
  ExperimentOptions options;
  options.mc.min_trials = trials;
  options.mc.max_trials = trials;
  options.mc.seed = 33;
  options.mixing_cap = 100'000;
  return options;
}

TEST(Table1Experiment, RowIsFullyPopulated) {
  const std::vector<FamilyInstance> instances = {
      make_family_instance(GraphFamily::kComplete, 64)};
  const std::vector<unsigned> ks = {2, 4};
  ThreadPool pool(2);
  const std::vector<Table1Row> rows =
      run_table1_rows(instances, ks, quick_options(200), pool);
  ASSERT_EQ(rows.size(), 1u);
  const Table1Row& row = rows.front();
  EXPECT_EQ(row.name, instances.front().name);
  EXPECT_EQ(row.n, 64u);
  EXPECT_GT(row.m, 0u);
  EXPECT_GT(row.profile.cover.ci.mean, 0.0);
  EXPECT_GT(row.profile.h_max.value, 0.0);
  EXPECT_TRUE(row.profile.mixing.converged);
  EXPECT_GT(row.profile.gap, 0.0);
  ASSERT_EQ(row.speedups.size(), 2u);
  EXPECT_EQ(row.speedups[0].k, 2u);
  EXPECT_EQ(row.speedups[1].k, 4u);
  EXPECT_GT(row.speedups[1].speedup, row.speedups[0].speedup * 0.9);
}

TEST(Table1Experiment, RenderContainsFamilyAndColumns) {
  const std::vector<FamilyInstance> instances = {
      make_family_instance(GraphFamily::kCycle, 33)};
  const std::vector<unsigned> ks = {2};
  ThreadPool pool(1);
  const std::vector<Table1Row> rows =
      run_table1_rows(instances, ks, quick_options(100), pool);
  const TextTable table = render_table1(rows, ks);
  const std::string text = table.str();
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("S^2"), std::string::npos);
  EXPECT_NE(text.find("t_mix"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 1u);
}

std::vector<FamilyInstance> table1_instances(std::uint64_t target_n) {
  std::vector<FamilyInstance> instances;
  for (GraphFamily family : table1_families()) {
    instances.push_back(make_family_instance(family, target_n));
  }
  return instances;
}

// The oracle chains run beside the Monte-Carlo, so the rows must equal the
// one-call-after-another composition, field by field, at every pool size.
TEST(Table1Experiment, RowsEqualSerialCompositionAtEveryPoolSize) {
  const std::vector<FamilyInstance> instances = table1_instances(40);
  const std::vector<unsigned> ks = {2, 3};
  ExperimentOptions options = quick_options(40);
  options.seed = 5;
  // Some families exceed the limit, so the sampled h_max path (Monte-Carlo
  // on the calling thread) is compared too.
  options.hmax_exact_limit = 40;
  std::size_t sampled = 0;
  for (const FamilyInstance& instance : instances) {
    if (!h_max_solved_exactly(instance.graph, options.hmax_exact_limit)) {
      ++sampled;
    }
  }
  ASSERT_GT(sampled, 0u);
  ASSERT_LT(sampled, instances.size());

  std::vector<GraphProfile> profiles;
  std::vector<std::vector<SpeedupEstimate>> curves;
  for (const FamilyInstance& instance : instances) {
    ProfileOptions profile_options;
    profile_options.mc = options.mc;
    profile_options.mc.seed = mix64(options.seed ^ 0x7ab1e1ULL);
    profile_options.cover = options.cover;
    profile_options.hmax_exact_limit = options.hmax_exact_limit;
    profile_options.mixing_cap = options.mixing_cap;
    profiles.push_back(profile_graph(instance, profile_options));
    McOptions mc = options.mc;
    mc.seed = mix64(options.seed ^ 0x5eedcafeULL);
    curves.push_back(estimate_speedup_curve(instance.graph, instance.start,
                                            ks, mc, options.cover));
  }

  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const std::vector<Table1Row> rows =
        run_table1_rows(instances, ks, options, pool);
    ASSERT_EQ(rows.size(), instances.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(instances[i].name + " threads=" + std::to_string(threads));
      const GraphProfile& got = rows[i].profile;
      const GraphProfile& want = profiles[i];
      EXPECT_EQ(rows[i].name, instances[i].name);
      EXPECT_EQ(got.h_max.exact, want.h_max.exact);
      EXPECT_EQ(got.h_max.value, want.h_max.value);
      EXPECT_EQ(got.h_max.half_width, want.h_max.half_width);
      EXPECT_EQ(got.h_max.from, want.h_max.from);
      EXPECT_EQ(got.h_max.to, want.h_max.to);
      EXPECT_EQ(got.mixing.time, want.mixing.time);
      EXPECT_EQ(got.mixing.converged, want.mixing.converged);
      EXPECT_EQ(got.mixing.laziness, want.mixing.laziness);
      EXPECT_EQ(got.cover.ci.mean, want.cover.ci.mean);
      EXPECT_EQ(got.cover.ci.half_width, want.cover.ci.half_width);
      EXPECT_EQ(got.cover.censored, want.cover.censored);
      EXPECT_EQ(got.gap, want.gap);
      ASSERT_EQ(rows[i].speedups.size(), curves[i].size());
      for (std::size_t j = 0; j < curves[i].size(); ++j) {
        EXPECT_EQ(rows[i].speedups[j].k, curves[i][j].k);
        EXPECT_EQ(rows[i].speedups[j].speedup, curves[i][j].speedup);
        EXPECT_EQ(rows[i].speedups[j].half_width, curves[i][j].half_width);
      }
    }
  }
}

// The calling thread's Monte-Carlo throws at its first estimate while both
// oracle chains still read the instances and write the function's locals:
// the chains are joined before the exception leaves (ASan reports a
// use-after-free otherwise), and the pool stays usable.
TEST(Table1Experiment, MonteCarloThrowJoinsTheOracleChains) {
  const std::vector<FamilyInstance> instances = table1_instances(256);
  const std::vector<unsigned> ks = {2};
  ExperimentOptions options = quick_options(20);
  options.mc.min_trials = 0;
  ThreadPool pool(2);
  try {
    run_table1_rows(instances, ks, options, pool);
    FAIL() << "min_trials = 0 must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("min_trials"), std::string::npos)
        << error.what();
  }
  std::atomic<int> calls{0};
  parallel_for(pool, 0, 64, [&](std::uint64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64);
}

// An oracle that throws (hitting times on a disconnected graph) reaches the
// caller as its own exception once the Monte-Carlo has finished.
TEST(Table1Experiment, OracleThrowReachesTheCaller) {
  std::vector<FamilyInstance> instances = table1_instances(33);
  FamilyInstance split;
  split.name = "two triangles";
  GraphBuilder builder(6);
  builder.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  builder.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
  split.graph = builder.build();
  instances.insert(instances.begin() + 1, std::move(split));
  const std::vector<unsigned> ks = {2};
  ExperimentOptions options = quick_options(20);
  options.cover.step_cap = 1000;  // the split graph is never covered
  ThreadPool pool(2);
  try {
    run_table1_rows(instances, ks, options, pool);
    FAIL() << "h_max of a disconnected graph must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("connected graph"),
              std::string::npos)
        << error.what();
  }
}

TEST(SpeedupCurveExperiment, PointsOrderedAsRequested) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kCycle, 21);
  const std::vector<unsigned> ks = {1, 2, 8};
  const auto result = run_speedup_curve(inst, ks, quick_options(200));
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.points[0].k, 1u);
  EXPECT_EQ(result.points[2].k, 8u);
  EXPECT_GT(result.single.ci.mean, 0.0);
}

TEST(SpeedupCurveExperiment, RenderWithReference) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2, 4};
  const auto result = run_speedup_curve(inst, ks, quick_options(150));
  const TextTable table =
      render_speedup_curve(result, "k (linear ref)", {2.0, 4.0});
  const std::string text = table.str();
  EXPECT_NE(text.find("k (linear ref)"), std::string::npos);
  EXPECT_NE(text.find("S^k"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(SpeedupCurveExperiment, RenderWithoutReference) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2};
  const auto result = run_speedup_curve(inst, ks, quick_options(100));
  const TextTable table = render_speedup_curve(result, "", {});
  EXPECT_EQ(table.num_columns(), 3u);
}

TEST(SpeedupCurveExperiment, ReferenceSizeMismatchThrows) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2};
  const auto result = run_speedup_curve(inst, ks, quick_options(100));
  EXPECT_THROW(render_speedup_curve(result, "ref", {1.0, 2.0}),
               std::invalid_argument);
}

TEST(BarbellExperiment, ProducesPointPerSize) {
  const std::vector<Vertex> ns = {31, 61};
  const auto result = run_barbell_experiment(ns, 3.0, quick_options(100));
  ASSERT_EQ(result.points.size(), 2u);
  for (const auto& p : result.points) {
    EXPECT_GT(p.k, 2u);
    EXPECT_GT(p.single.ci.mean, 0.0);
    EXPECT_GT(p.speedup, 1.0);
  }
  // Larger barbells have larger speed-up at k = Θ(log n).
  EXPECT_GT(result.points[1].speedup, result.points[0].speedup);
}

TEST(BarbellExperiment, RenderSmokes) {
  const std::vector<Vertex> ns = {31};
  const auto result = run_barbell_experiment(ns, 3.0, quick_options(60));
  const std::string text = render_barbell(result).str();
  EXPECT_NE(text.find("C^k/n"), std::string::npos);
  EXPECT_NE(text.find("31"), std::string::npos);
}

TEST(Experiments, DeterministicWithSameSeed) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kCycle, 15);
  const std::vector<unsigned> ks = {2};
  const auto a = run_speedup_curve(inst, ks, quick_options(100));
  const auto b = run_speedup_curve(inst, ks, quick_options(100));
  EXPECT_DOUBLE_EQ(a.points[0].speedup, b.points[0].speedup);
}

}  // namespace
}  // namespace manywalks
