#include "mc/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

namespace manywalks {
namespace {

TEST(MonteCarloRunner, ConstantTrialGivesExactMean) {
  McOptions options;
  options.min_trials = 8;
  options.max_trials = 64;
  const auto result = run_monte_carlo(
      [](std::uint64_t, Rng&) { return TrialOutcome{7.0, false}; }, options);
  EXPECT_DOUBLE_EQ(result.ci.mean, 7.0);
  EXPECT_DOUBLE_EQ(result.ci.half_width, 0.0);
  EXPECT_TRUE(result.target_met);
  EXPECT_EQ(result.censored, 0u);
  // Zero variance: stops right after the first batch (min_trials).
  EXPECT_EQ(result.stats.count(), 8u);
}

TEST(MonteCarloRunner, DeterministicAcrossThreadCounts) {
  const auto trial = [](std::uint64_t, Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform01();
    return TrialOutcome{acc, false};
  };
  McOptions options;
  options.min_trials = 40;
  options.max_trials = 40;
  options.seed = 99;

  options.threads = 1;
  const auto serial = run_monte_carlo(trial, options);
  options.threads = 8;
  const auto parallel = run_monte_carlo(trial, options);
  EXPECT_DOUBLE_EQ(serial.ci.mean, parallel.ci.mean);
  EXPECT_DOUBLE_EQ(serial.stats.variance(), parallel.stats.variance());
  EXPECT_EQ(serial.stats.count(), parallel.stats.count());
}

TEST(MonteCarloRunner, SeedChangesResults) {
  const auto trial = [](std::uint64_t, Rng& rng) {
    return TrialOutcome{rng.uniform01(), false};
  };
  McOptions options;
  options.min_trials = 16;
  options.max_trials = 16;
  options.seed = 1;
  const auto r1 = run_monte_carlo(trial, options);
  options.seed = 2;
  const auto r2 = run_monte_carlo(trial, options);
  EXPECT_NE(r1.ci.mean, r2.ci.mean);
}

TEST(MonteCarloRunner, TrialIndexIsPassedThrough) {
  std::atomic<std::uint64_t> index_sum{0};
  McOptions options;
  options.min_trials = 10;
  options.max_trials = 10;
  run_monte_carlo(
      [&index_sum](std::uint64_t index, Rng&) {
        index_sum.fetch_add(index);
        return TrialOutcome{0.0, false};
      },
      options);
  EXPECT_EQ(index_sum.load(), 45u);  // 0 + 1 + ... + 9
}

TEST(MonteCarloRunner, StopsAtTargetPrecision) {
  // Low-variance trial: should stop well before max_trials.
  const auto trial = [](std::uint64_t, Rng& rng) {
    return TrialOutcome{100.0 + rng.uniform01(), false};
  };
  McOptions options;
  options.min_trials = 16;
  options.max_trials = 100000;
  options.target_rel_half_width = 0.01;
  const auto result = run_monte_carlo(trial, options);
  EXPECT_TRUE(result.target_met);
  EXPECT_LT(result.stats.count(), 1000u);
}

TEST(MonteCarloRunner, RespectsMaxTrials) {
  // High-variance trial with an unreachable precision target.
  const auto trial = [](std::uint64_t, Rng& rng) {
    return TrialOutcome{rng.uniform01() < 0.5 ? 0.0 : 1000.0, false};
  };
  McOptions options;
  options.min_trials = 8;
  options.max_trials = 64;
  options.target_rel_half_width = 1e-6;
  const auto result = run_monte_carlo(trial, options);
  EXPECT_FALSE(result.target_met);
  EXPECT_EQ(result.stats.count(), 64u);
}

TEST(MonteCarloRunner, CountsCensoredTrials) {
  McOptions options;
  options.min_trials = 10;
  options.max_trials = 10;
  const auto result = run_monte_carlo(
      [](std::uint64_t index, Rng&) {
        return TrialOutcome{1.0, index % 2 == 0};
      },
      options);
  EXPECT_EQ(result.censored, 5u);
  EXPECT_FALSE(result.target_met);
}

TEST(MonteCarloRunner, CensoredTrialsNeverMeetTheTarget) {
  // Regression for the censored-trial bias: every trial hits the step cap
  // at the same value, so the CI has zero width and the OLD harness
  // declared target_met on purely censored (lower-bound) data. The mean
  // must still be reported (it is a valid lower bound) but never
  // certified.
  McOptions options;
  options.min_trials = 8;
  options.max_trials = 64;
  const auto result = run_monte_carlo(
      [](std::uint64_t, Rng&) {
        return TrialOutcome{100000.0, /*censored=*/true};  // cap value
      },
      options);
  EXPECT_FALSE(result.target_met);
  EXPECT_EQ(result.censored, result.stats.count());
  EXPECT_DOUBLE_EQ(result.ci.mean, 100000.0);
  // And it cannot stop early on the (meaningless) tight CI: the whole
  // budget runs.
  EXPECT_EQ(result.stats.count(), 64u);
}

TEST(MonteCarloRunner, MixedCensoredTrialsAlsoBlockTarget) {
  McOptions options;
  options.min_trials = 8;
  options.max_trials = 32;
  const auto result = run_monte_carlo(
      [](std::uint64_t index, Rng&) {
        return TrialOutcome{50.0, index == 3};  // one censored trial
      },
      options);
  EXPECT_EQ(result.censored, 1u);
  EXPECT_FALSE(result.target_met);
  EXPECT_EQ(result.stats.count(), 32u);
}

TEST(MonteCarloRunner, GeometricBatchesKeepIndexOrderedReduction) {
  // The growing batch schedule must not change WHAT is computed: the
  // stats absorb trial 0, 1, 2, ... in index order no matter how batches
  // are cut, so the result equals a serial replay and is independent of
  // the thread count.
  const auto trial = [](std::uint64_t index, Rng&) {
    return TrialOutcome{static_cast<double>((index * 7919) % 101), false};
  };
  McOptions options;
  options.min_trials = 10;
  options.max_trials = 200;
  options.target_rel_half_width = 1e-12;  // unreachable: all batches run

  options.threads = 1;
  const auto serial = run_monte_carlo(trial, options);
  options.threads = 8;
  const auto parallel = run_monte_carlo(trial, options);
  EXPECT_EQ(serial.stats.count(), 200u);
  EXPECT_EQ(parallel.stats.count(), 200u);
  EXPECT_DOUBLE_EQ(serial.ci.mean, parallel.ci.mean);
  EXPECT_DOUBLE_EQ(serial.stats.variance(), parallel.stats.variance());

  RunningStats replay;
  Rng unused(0);
  for (std::uint64_t i = 0; i < 200; ++i) replay.add(trial(i, unused).value);
  EXPECT_DOUBLE_EQ(serial.ci.mean, replay.mean());
  EXPECT_DOUBLE_EQ(serial.stats.variance(), replay.variance());
}

TEST(MonteCarloRunner, AdaptiveStopIsIndependentOfPoolSize) {
  // Batch boundaries are where the CI stop is checked, so they decide the
  // trial count an adaptive estimate ends at. With a small min_trials the
  // geometric schedule's floor sets every later boundary; it must not
  // depend on how many workers the pool has.
  const auto trial = [](std::uint64_t, Rng& rng) {
    return TrialOutcome{1.0 + rng.uniform01(), false};
  };
  McOptions options;
  options.min_trials = 2;
  options.max_trials = 10000;
  options.target_rel_half_width = 0.05;
  options.seed = 7;

  std::vector<McResult> results;
  for (unsigned threads : {0u, 1u, 3u, 4u, 7u}) {  // 0: hardware default
    ThreadPool pool(threads);
    results.push_back(run_monte_carlo(trial, options, &pool));
  }
  const McResult& ref = results.front();
  EXPECT_TRUE(ref.target_met);
  EXPECT_LT(ref.stats.count(), options.max_trials);
  for (const McResult& r : results) {
    EXPECT_EQ(r.stats.count(), ref.stats.count());
    EXPECT_EQ(r.ci.count, ref.ci.count);
    EXPECT_EQ(r.ci.mean, ref.ci.mean);
    EXPECT_EQ(r.ci.half_width, ref.ci.half_width);
    EXPECT_EQ(r.stats.variance(), ref.stats.variance());
    EXPECT_EQ(r.stats.min(), ref.stats.min());
    EXPECT_EQ(r.stats.max(), ref.stats.max());
    EXPECT_EQ(r.target_met, ref.target_met);
    EXPECT_EQ(r.censored, ref.censored);
  }
}

TEST(MonteCarloRunner, MeanOfUniformIsHalf) {
  McOptions options;
  options.min_trials = 4000;
  options.max_trials = 4000;
  const auto result = run_monte_carlo(
      [](std::uint64_t, Rng& rng) { return TrialOutcome{rng.uniform01(), false}; },
      options);
  EXPECT_NEAR(result.ci.mean, 0.5, 0.02);
  // 95% CI half-width for 4000 uniform samples ≈ 1.96 * 0.2887/63.2 ≈ 0.009.
  EXPECT_NEAR(result.ci.half_width, 0.009, 0.003);
}

TEST(MonteCarloRunner, UsesExternalPool) {
  ThreadPool pool(2);
  McOptions options;
  options.min_trials = 16;
  options.max_trials = 16;
  const auto result = run_monte_carlo(
      [](std::uint64_t, Rng& rng) { return TrialOutcome{rng.uniform01(), false}; },
      options, &pool);
  EXPECT_EQ(result.stats.count(), 16u);
  // The pool must remain usable.
  pool.wait_idle();
}

TEST(MonteCarloRunner, ValidatesOptions) {
  const auto trial = [](std::uint64_t, Rng&) { return TrialOutcome{}; };
  McOptions bad;
  bad.min_trials = 10;
  bad.max_trials = 5;
  EXPECT_THROW(run_monte_carlo(trial, bad), std::invalid_argument);
  McOptions zero;
  zero.min_trials = 0;
  EXPECT_THROW(run_monte_carlo(trial, zero), std::invalid_argument);
}

TEST(MonteCarloRunner, TimingIsPopulated) {
  McOptions options;
  options.min_trials = 4;
  options.max_trials = 4;
  const auto result = run_monte_carlo(
      [](std::uint64_t, Rng&) { return TrialOutcome{1.0, false}; }, options);
  EXPECT_GE(result.seconds, 0.0);
}

}  // namespace
}  // namespace manywalks
