// The observability layer (ISSUE 10): MetricsRegistry arithmetic and
// snapshots, the thread-scratch drain pipeline under a real worker team
// (the TSan target for the no-atomics design), TraceWriter document
// structure, ProgressReporter heartbeat lines, and — the load-bearing
// contract — byte-identity goldens proving an installed observer leaves
// every engine's results bit-for-bit unchanged (lane serial, lane sharded,
// and the out-of-core block engine through the registered experiments).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "cli/sinks.hpp"
#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "storage/mwg.hpp"
#include "util/thread_pool.hpp"
#include "walk/engine.hpp"
#include "walk/hitting.hpp"

namespace manywalks {
namespace {

using obs::Metric;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::WorkerCounters;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("manywalks_test_obs_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Tests share the process-wide thread-local scratch with everything that
/// ran before them; flushing into a throwaway registry isolates each test.
void discard_pending_scratch() {
  MetricsRegistry junk;
  obs::drain_thread_counters(junk);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, CountersSumAndGaugesKeepHighWaterMark) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.value(Metric::kSteps), 0u);
  registry.add(Metric::kSteps, 5);
  registry.add(Metric::kSteps, 7);
  EXPECT_EQ(registry.value(Metric::kSteps), 12u);
  registry.gauge_max(Metric::kPoolQueuePeak, 3);
  registry.gauge_max(Metric::kPoolQueuePeak, 9);
  registry.gauge_max(Metric::kPoolQueuePeak, 4);
  EXPECT_EQ(registry.value(Metric::kPoolQueuePeak), 9u);
}

TEST(MetricsRegistry, HistogramUsesLog2BucketsAndCountsObservations) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(1u << 10), 11u);

  MetricsRegistry registry;
  registry.observe(Metric::kTrialRounds, 0);
  registry.observe(Metric::kTrialRounds, 3);
  registry.observe(Metric::kTrialRounds, 3);
  registry.observe(Metric::kTrialRounds, 1000);
  // The counter slot of a histogram is its observation count.
  EXPECT_EQ(registry.value(Metric::kTrialRounds), 4u);
  for (const obs::MetricSnapshot& snap : registry.snapshot()) {
    if (snap.name != obs::metric_name(Metric::kTrialRounds)) continue;
    EXPECT_EQ(snap.kind, MetricKind::kHistogram);
    ASSERT_GT(snap.buckets.size(), 10u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[2], 2u);
    EXPECT_EQ(snap.buckets[10], 1u);  // 1000 in [512, 1024)
    return;
  }
  FAIL() << "no mc.trial_rounds snapshot";
}

TEST(MetricsRegistry, SnapshotKeepsFixedEnumOrder) {
  const auto snapshot = MetricsRegistry().snapshot();
  ASSERT_EQ(snapshot.size(), obs::kMetricCount);
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    EXPECT_EQ(snapshot[i].name,
              obs::metric_name(static_cast<Metric>(i)));
  }
  EXPECT_EQ(snapshot.front().name, "walk.steps");
}

TEST(MetricsRegistry, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.add(Metric::kSteps, 3);
  registry.observe(Metric::kTrialRounds, 8);
  registry.reset();
  EXPECT_EQ(registry.value(Metric::kSteps), 0u);
  EXPECT_EQ(registry.value(Metric::kTrialRounds), 0u);
}

TEST(MetricsRegistry, MergeSumsCountersAndMaxMergesGauges) {
  WorkerCounters a;
  WorkerCounters b;
  a.add(Metric::kRounds, 10);
  b.add(Metric::kRounds, 4);
  a.note_max(Metric::kPoolQueuePeak, 6);
  b.note_max(Metric::kPoolQueuePeak, 2);
  MetricsRegistry registry;
  registry.merge(a);
  registry.merge(b);
  EXPECT_EQ(registry.value(Metric::kRounds), 14u);
  EXPECT_EQ(registry.value(Metric::kPoolQueuePeak), 6u);
}

// --- the thread-scratch drain pipeline ---------------------------------------

// The TSan target: many workers write their own thread-local scratch with
// plain (non-atomic) increments while the team runs; the coordinator
// drains after the parallel_for rendezvous. Any missing synchronization in
// that design is a data race TSan flags here.
TEST(ThreadScratch, ConcurrentFillThenDrainIsExactAndRaceFree) {
  discard_pending_scratch();
  constexpr std::uint64_t kItems = 4096;
  ThreadPool pool(3);
  parallel_for(
      pool, 0, kItems,
      [](std::uint64_t i) {
        WorkerCounters& scratch = obs::thread_counters();
        scratch.add(Metric::kSteps, i + 1);
        scratch.add(Metric::kRounds, 1);
        scratch.note_max(Metric::kPoolQueuePeak, i);
      },
      /*grain=*/16);
  MetricsRegistry registry;
  obs::drain_thread_counters(registry);
  EXPECT_EQ(registry.value(Metric::kSteps), kItems * (kItems + 1) / 2);
  EXPECT_EQ(registry.value(Metric::kRounds), kItems);
  EXPECT_EQ(registry.value(Metric::kPoolQueuePeak), kItems - 1);
  // The drain zeroes every scratch: a second drain adds nothing.
  obs::drain_thread_counters(registry);
  EXPECT_EQ(registry.value(Metric::kRounds), kItems);
}

TEST(ThreadScratch, CountersFromExitedThreadsSurviveIntoTheDrain) {
  discard_pending_scratch();
  {
    ThreadPool pool(2);
    parallel_for(
        pool, 0, 64,
        [](std::uint64_t) { obs::thread_counters().add(Metric::kMerges, 1); },
        /*grain=*/1);
  }  // pool joined and destroyed: worker scratches fold into the orphan bucket
  MetricsRegistry registry;
  obs::drain_thread_counters(registry);
  EXPECT_EQ(registry.value(Metric::kMerges), 64u);
}

// --- observer install discipline --------------------------------------------

TEST(Observer, NullByDefaultAndScopedInstallRestores) {
  EXPECT_EQ(obs::observer(), nullptr);
  MetricsRegistry registry;
  obs::RunObserver o{&registry, nullptr, nullptr};
  {
    obs::ScopedObserver scoped(&o);
    ASSERT_EQ(obs::observer(), &o);
    EXPECT_EQ(obs::observer()->metrics, &registry);
  }
  EXPECT_EQ(obs::observer(), nullptr);
}

// --- TraceWriter -------------------------------------------------------------

bool brackets_balanced(const std::string& text) {
  std::int64_t braces = 0;
  std::int64_t squares = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++squares;
    else if (c == ']') --squares;
    if (braces < 0 || squares < 0) return false;
  }
  return braces == 0 && squares == 0 && !in_string;
}

TEST(TraceWriter, RendersAWellFormedTraceDocument) {
  obs::TraceWriter writer("unused.json");
  writer.complete("trial", "mc", 0, 10, 25, "\"trial\":3");
  writer.instant("extent-load", "cache", 0, "\"bytes\":4096");
  writer.counter("resident_bytes", 12345);
  EXPECT_EQ(writer.event_count(), 3u);
  EXPECT_EQ(writer.dropped(), 0u);
  const std::string doc = writer.render();
  EXPECT_TRUE(brackets_balanced(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"trial\""), std::string::npos);
  EXPECT_NE(doc.find("\"extent-load\""), std::string::npos);
  EXPECT_NE(doc.find("\"resident_bytes\""), std::string::npos);
  EXPECT_EQ(doc.find(",]"), std::string::npos);
  EXPECT_EQ(doc.find(",}"), std::string::npos);
}

TEST(TraceWriter, EventCapDropsOnlyHighFrequencyCategories) {
  obs::TraceWriter writer("unused.json", /*max_events=*/2);
  writer.instant("extent-load", "cache", 0);
  writer.instant("block-visit", "block", 0);
  // At the cap: block/cache churn is dropped and counted...
  writer.instant("extent-load", "cache", 0);
  writer.instant("block-visit", "block", 0);
  EXPECT_EQ(writer.event_count(), 2u);
  EXPECT_EQ(writer.dropped(), 2u);
  // ...but structural spans still land — they close last (RAII), and a
  // blind cap would hollow out exactly the outer trace hierarchy.
  writer.complete("trial", "mc", 0, 0, 5);
  writer.complete("experiment", "cli", 0, 0, 9);
  EXPECT_EQ(writer.event_count(), 4u);
  EXPECT_EQ(writer.dropped(), 2u);
  const std::string doc = writer.render();
  EXPECT_NE(doc.find("\"experiment\""), std::string::npos);
  EXPECT_NE(doc.find("\"dropped_events\":2"), std::string::npos);
  EXPECT_TRUE(brackets_balanced(doc));
}

TEST(TraceWriter, WriteEmitsRenderToPath) {
  TempFile file("trace.json");
  obs::TraceWriter writer(file.path());
  writer.instant("mark", "test", 0);
  ASSERT_TRUE(writer.write());
  std::ifstream in(file.path(), std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), writer.render());
}

TEST(TraceSpan, NullWriterIsANoOpAndLiveWriterEmitsOneComplete) {
  {
    obs::TraceSpan span(nullptr, "quiet", "test");
    span.set_args("\"x\":1");
  }  // must not crash, nothing to observe
  obs::TraceWriter writer("unused.json");
  {
    obs::TraceSpan span(&writer, "work", "test");
    span.set_args("\"x\":1");
  }
  EXPECT_EQ(writer.event_count(), 1u);
  EXPECT_NE(writer.render().find("\"work\""), std::string::npos);
  EXPECT_NE(writer.render().find("\"x\":1"), std::string::npos);
}

// --- ProgressReporter --------------------------------------------------------

TEST(ProgressReporter, StaysQuietUntilTheFirstIntervalElapses) {
  std::ostringstream out;
  obs::ProgressReporter progress(/*interval_seconds=*/3600, nullptr, &out);
  progress.tick();
  progress.tick();
  EXPECT_EQ(progress.lines_printed(), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(ProgressReporter, ZeroIntervalPrintsEveryTickAndFinishSummarizes) {
  discard_pending_scratch();
  MetricsRegistry registry;
  registry.add(Metric::kTrialsDone, 5);
  registry.add(Metric::kRounds, 100);
  registry.add(Metric::kSteps, 400);
  registry.add(Metric::kCacheHits, 3);
  registry.add(Metric::kCacheLoads, 1);
  std::ostringstream out;
  obs::ProgressReporter progress(/*interval_seconds=*/0, &registry, &out);
  progress.set_total_trials(5);
  progress.tick();
  progress.tick();
  progress.finish();
  EXPECT_EQ(progress.lines_printed(), 3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("[manywalks]"), std::string::npos);
  EXPECT_NE(text.find("done:"), std::string::npos);
  EXPECT_NE(text.find("5/5 trials"), std::string::npos);
  EXPECT_NE(text.find("100 rounds"), std::string::npos);
  EXPECT_NE(text.find("cache 75.0%"), std::string::npos);
  EXPECT_NE(text.find("elapsed"), std::string::npos);
}

TEST(ProgressReporter, FinalLineHidesTheTotalWhenARunStoppedEarly) {
  MetricsRegistry registry;
  registry.add(Metric::kTrialsDone, 3);
  std::ostringstream out;
  obs::ProgressReporter progress(/*interval_seconds=*/0, &registry, &out);
  progress.set_total_trials(10);
  progress.finish();
  EXPECT_NE(out.str().find(" 3 trials"), std::string::npos);
  EXPECT_EQ(out.str().find("3/10"), std::string::npos);
}

// --- byte-identity goldens: an observer is observably inert ------------------

/// Runs a registered experiment and renders it with the run-dependent wall
/// time zeroed: everything left must be bit-identical across observed and
/// unobserved runs (the manifest is filled by the CLI driver, not the
/// runner, so it is empty on both sides here).
std::string run_rendered(const char* name, const cli::ExperimentParams& params,
                         ThreadPool& pool) {
  const cli::Experiment* experiment = cli::default_registry().find(name);
  EXPECT_NE(experiment, nullptr) << name;
  ExperimentResult result = experiment->run(params, pool);
  result.elapsed_seconds = 0.0;
  return cli::render_json(result);
}

struct ObservedRun {
  std::string json;
  MetricsRegistry registry;
  std::string trace;
  std::string progress;
};

ObservedRun run_observed(const char* name, const cli::ExperimentParams& params,
                         ThreadPool& pool) {
  ObservedRun run;
  obs::TraceWriter trace("unused.json");
  std::ostringstream progress_out;
  obs::ProgressReporter progress(/*interval_seconds=*/0, &run.registry,
                                 &progress_out);
  obs::RunObserver observer{&run.registry, &trace, &progress};
  {
    obs::ScopedObserver scoped(&observer);
    run.json = run_rendered(name, params, pool);
  }
  obs::drain_thread_counters(run.registry);
  run.trace = trace.render();
  run.progress = progress_out.str();
  return run;
}

TEST(ObsGolden, LaneEngineExperimentIsByteIdenticalUnderFullObservation) {
  discard_pending_scratch();
  cli::ExperimentParams params;
  params.seed = 3;
  params.n = 64;
  params.trials = 8;
  params.kmax = 4;
  params.threads = 3;
  ThreadPool pool(2);
  const std::string unobserved = run_rendered("fig_cycle_speedup", params, pool);
  const ObservedRun observed = run_observed("fig_cycle_speedup", params, pool);
  EXPECT_EQ(observed.json, unobserved);
  EXPECT_GT(observed.registry.value(Metric::kTrialsDone), 0u);
  EXPECT_GT(observed.registry.value(Metric::kSteps), 0u);
  EXPECT_NE(observed.trace.find("\"batch\""), std::string::npos);
  EXPECT_NE(observed.progress.find("trials"), std::string::npos);
  // And the observed run perturbed nothing for LATER runs either.
  EXPECT_EQ(run_rendered("fig_cycle_speedup", params, pool), unobserved);
}

TEST(ObsGolden, ShardedCoverRunIsBitIdenticalUnderFullObservation) {
  discard_pending_scratch();
  const Graph g = make_margulis_expander(16);  // n = 256, 8-regular
  constexpr unsigned kK = 32;
  const std::vector<Vertex> starts(kK, 0);
  ThreadPool pool(3);
  CoverOptions opt;
  opt.lane_shards = 4;
  opt.shard_pool = &pool;
  WalkEngineT engine{CsrSubstrate(g)};

  Rng baseline_rng(99);
  engine.reset(starts);
  const CoverSample baseline =
      engine.run_until_visited(g.num_vertices(), baseline_rng, opt);

  MetricsRegistry registry;
  obs::TraceWriter trace("unused.json");
  std::ostringstream progress_out;
  obs::ProgressReporter progress(0, &registry, &progress_out);
  obs::RunObserver observer{&registry, &trace, &progress};
  Rng observed_rng(99);
  CoverSample observed;
  {
    obs::ScopedObserver scoped(&observer);
    engine.reset(starts);
    observed = engine.run_until_visited(g.num_vertices(), observed_rng, opt);
  }
  obs::drain_thread_counters(registry);

  EXPECT_EQ(observed.steps, baseline.steps);
  EXPECT_EQ(observed.covered, baseline.covered);
  // Inertness includes the RNG stream: identical draws, identical state.
  EXPECT_EQ(observed_rng.state(), baseline_rng.state());
  // The sharded run accounted its rounds and steps exactly.
  EXPECT_EQ(registry.value(Metric::kRounds), observed.steps);
  EXPECT_EQ(registry.value(Metric::kSteps), observed.steps * kK);
  // One merge per epoch, the covering epoch included.
  EXPECT_EQ(registry.value(Metric::kMerges),
            (observed.steps + kShardEpochRounds - 1) / kShardEpochRounds);
}

TEST(ObsGolden, HittingTimeEstimateCountsItsWalkStepsAndStaysInert) {
  // The Monte-Carlo h(u,v) samplers walk outside the engine; their
  // token-steps must still reach walk.steps, one flush per sample.
  discard_pending_scratch();
  const Graph g = make_grid_2d(6);
  constexpr Vertex kFrom = 0;
  constexpr Vertex kTo = 21;
  McOptions mc;
  mc.min_trials = 16;
  mc.max_trials = 96;
  mc.seed = 41;
  ThreadPool pool(2);
  const McResult unobserved = estimate_hitting_time(g, kFrom, kTo, mc, {},
                                                    &pool);

  MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr, nullptr};
  McResult observed;
  {
    obs::ScopedObserver scoped(&observer);
    observed = estimate_hitting_time(g, kFrom, kTo, mc, {}, &pool);
  }
  obs::drain_thread_counters(registry);

  EXPECT_EQ(observed.stats.count(), unobserved.stats.count());
  EXPECT_EQ(observed.ci.mean, unobserved.ci.mean);
  EXPECT_EQ(observed.ci.half_width, unobserved.ci.half_width);
  EXPECT_EQ(observed.censored, unobserved.censored);
  EXPECT_EQ(observed.target_met, unobserved.target_met);

  // Replay every reduced trial on its own stream: a single walk, so its
  // token-steps are its rounds.
  std::uint64_t expected_steps = 0;
  for (std::uint64_t i = 0; i < observed.stats.count(); ++i) {
    Rng rng = make_trial_rng(mc.seed, i);
    expected_steps += sample_hitting_time(g, kFrom, kTo, rng).steps;
  }
  EXPECT_GT(expected_steps, 0u);
  EXPECT_EQ(registry.value(Metric::kSteps), expected_steps);
  EXPECT_EQ(registry.value(Metric::kRounds), expected_steps);
}

TEST(ObsGolden, BlockEngineExperimentIsByteIdenticalAndTracesTheSchedule) {
  discard_pending_scratch();
  const Graph g = make_grid_2d(24);
  TempFile file("block.mwg");
  write_mwg(file.path(), g, /*block_bits=*/7);  // mwg v2: 2^7-vertex blocks

  cli::ExperimentParams params;
  params.seed = 7;
  params.trials = 8;
  params.kmax = 4;
  params.graph = file.path();
  params.block_walk = true;
  params.mem_budget = "64K";
  ThreadPool pool(2);

  const std::string unobserved = run_rendered("mwg-speedup", params, pool);
  const ObservedRun observed = run_observed("mwg-speedup", params, pool);
  EXPECT_EQ(observed.json, unobserved);
  // The OOC schedule surfaced: block visits counted, extent-cache traffic
  // counted, and the trace holds the acceptance spans.
  EXPECT_GT(observed.registry.value(Metric::kBlockVisits), 0u);
  EXPECT_GT(observed.registry.value(Metric::kRounds), 0u);
  EXPECT_GT(observed.registry.value(Metric::kCacheLoads), 0u);
  EXPECT_GT(observed.registry.value(Metric::kCacheBytesLoaded), 0u);
  EXPECT_NE(observed.trace.find("\"block-visit\""), std::string::npos);
  EXPECT_NE(observed.trace.find("\"horizon\""), std::string::npos);
  EXPECT_NE(observed.trace.find("\"extent-load\""), std::string::npos);
  EXPECT_TRUE(brackets_balanced(observed.trace));
}

}  // namespace
}  // namespace manywalks
