// perfbench_probe: the layer-level half of the manywalks benchmark.
//
// run.py times `manywalks run <experiment>` from outside for the
// end-to-end numbers. This program re-composes the same experiments from
// the library's public functions and times each call at its layer
// boundary, so a run can say where its wall time went:
//
//   graph.build    make_family_instance
//   storage.open   MappedGraph / BlockedGraph (+ BlockWalkEngine) open
//   theory.hmax    measure_h_max
//   theory.mixing  measure_mixing_time
//   mc.estimate    the estimate_* estimators (and the mwg-starts bodies,
//                  which are built from them)
//   cli.emit       emit_result
//
// Around every call it drains the obs::MetricsRegistry counters, so each
// span carries the walk/shard/block/cache/trial counts the call produced.
// The composed result must equal the CLI's (run.py compares them), which
// keeps this decomposition honest when the experiment runners change.
//
//   perfbench_probe setup --workload=W [workload flags]
//   perfbench_probe trace --workload=W --seed=S --threads=T [workload flags]
//   perfbench_probe exec --rusage=FILE -- CMD [ARGS...]
//
// `setup` builds the workload's graph once (run.py times the process);
// `trace` runs the workload traced and prints one JSON document; `exec`
// runs CMD and writes its exit code, wall and CPU time and peak RSS.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/experiments_common.hpp"
#include "cli/experiments_mwg.hpp"
#include "cli/presets.hpp"
#include "cli/registry.hpp"
#include "cli/sinks.hpp"
#include "core/analyzer.hpp"
#include "core/experiments.hpp"
#include "core/families.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "theory/bounds.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "walk/block_engine.hpp"
#include "walk/cover.hpp"

namespace mw = manywalks;
namespace cli = manywalks::cli;
namespace obs = manywalks::obs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed call into a layer, with the registry counters it produced.
struct Span {
  std::string layer;
  std::string call;
  std::string label;
  double seconds = 0.0;
  std::array<std::uint64_t, obs::kMetricCount> counters{};
};

/// Installs a metrics-only observer for its lifetime and records one Span
/// per timed call. Counters are drained at the quiesced points right
/// before and after each call (the pool is idle there), so every count
/// lands in exactly one span.
class Tracer {
 public:
  Tracer() : scoped_(&observer_) {}

  template <class Fn>
  decltype(auto) time(std::string layer, std::string call, std::string label,
                      Fn&& fn) {
    obs::drain_thread_counters(registry_);
    const auto before = counters();
    const Clock::time_point start = Clock::now();
    decltype(auto) result = fn();
    Span span{std::move(layer), std::move(call), std::move(label),
              seconds_since(start), {}};
    obs::drain_thread_counters(registry_);
    const auto after = counters();
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
      span.counters[i] = after[i] - before[i];
    }
    spans_.push_back(std::move(span));
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::array<std::uint64_t, obs::kMetricCount> counters() const {
    std::array<std::uint64_t, obs::kMetricCount> values{};
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
      values[i] = registry_.value(static_cast<obs::Metric>(i));
    }
    return values;
  }

  obs::MetricsRegistry registry_;
  obs::RunObserver observer_{&registry_, nullptr, nullptr};
  obs::ScopedObserver scoped_;
  std::vector<Span> spans_;
};

/// Graphs and engines a traced workload keeps alive for the kernel probe.
struct WorkloadState {
  std::vector<mw::FamilyInstance> instances;
  std::optional<mw::TorusSubstrate> torus;
  std::optional<mw::MappedGraph> mapped;
  std::optional<mw::BlockedGraph> blocked;
  std::optional<mw::BlockWalkEngine> engine;
};

/// What a traced workload hands back besides its spans.
struct TraceOutput {
  mw::ExperimentResult result;  // tables compared against the CLI's
  std::string curve_json;       // giant-torus: the raw speed-up curve
  std::uint64_t estimates = 0;       // cover estimates run
  std::uint64_t lane_estimates = 0;  // ... of which resolved to kLanes
  // Single-thread kernel probe: one trial of the workload's graph and k
  // (refers into the WorkloadState).
  std::function<mw::CoverSample(mw::Rng&)> kernel_trial;
  unsigned kernel_k = 1;
  std::string kernel_label;
  std::string store_json;  // mwg-*: file bytes and block count
};

/// 1 when the thread budget hands the pool to the lanes (kLanes), else 0.
std::uint64_t count_lanes(std::uint64_t max_trials, std::size_t lanes,
                          unsigned pool_threads) {
  return mw::choose_parallelism(max_trials, lanes, pool_threads) ==
                 mw::McParallelism::kLanes
             ? 1
             : 0;
}

// --- table1: run_table1 re-composed layer by layer ---------------------------

TraceOutput trace_table1(const cli::ExperimentParams& params,
                         mw::ThreadPool& pool,
                         Tracer& tracer, WorkloadState& state) {
  const cli::ExperimentPreset& preset = cli::preset_for("table1_summary");
  const std::uint64_t target_n = cli::resolve_n(preset, params);
  const std::uint64_t target_trials = cli::resolve_trials(preset, params);
  // The quick-mode settings of run_table1 (cli/experiments_table1.cpp);
  // run.py's table comparison fails if the two drift apart.
  mw::ExperimentOptions options =
      cli::preset_experiment_options(params.seed, target_trials);
  options.mc.target_rel_half_width = 0.04;
  options.hmax_exact_limit = 1200;
  options.mixing_cap = 1'000'000;
  const auto log_n = static_cast<unsigned>(std::max(
      3.0, std::floor(std::log(static_cast<double>(target_n)))));
  const std::vector<unsigned> ks = {2, log_n};

  TraceOutput out;
  std::vector<mw::Table1Row> rows;
  std::uint64_t heaviest_steps = 0;
  std::size_t heaviest = 0;
  for (mw::GraphFamily family : mw::table1_families()) {
    state.instances.push_back(
        tracer.time("graph.build", "make_family_instance", "", [&] {
          return mw::make_family_instance(family, target_n, params.seed);
        }));
    const mw::FamilyInstance& instance = state.instances.back();
    const std::string& label = instance.name;
    mw::Table1Row row;
    row.name = instance.name;
    row.n = instance.graph.num_vertices();
    row.m = instance.graph.num_edges();
    row.theory = instance.theory;

    // run_table1_row and profile_graph (core/), one call per layer.
    mw::McOptions profile_mc = options.mc;
    profile_mc.seed = mw::mix64(params.seed ^ 0x7ab1e1ULL);
    row.profile.cover =
        tracer.time("mc.estimate", "estimate_cover_time", label, [&] {
          return mw::estimate_cover_time(instance.graph, instance.start,
                                         profile_mc, options.cover, &pool);
        });
    row.profile.h_max = tracer.time("theory.hmax", "measure_h_max", label, [&] {
      return mw::measure_h_max(instance.graph, profile_mc,
                               options.hmax_exact_limit, &pool);
    });
    row.profile.mixing =
        tracer.time("theory.mixing", "measure_mixing_time", label, [&] {
          return mw::measure_mixing_time(instance.graph,
                                         instance.needs_lazy_mixing,
                                         options.mixing_cap);
        });
    row.profile.gap = mw::cover_hitting_gap(row.profile.cover.ci.mean,
                                            row.profile.h_max.value);

    mw::McOptions mc = options.mc;
    mc.seed = mw::mix64(params.seed ^ 0x5eedcafeULL);
    row.speedups =
        tracer.time("mc.estimate", "estimate_speedup_curve", label, [&] {
          return mw::estimate_speedup_curve(instance.graph, instance.start, ks,
                                            mc, options.cover, &pool);
        });
    rows.push_back(std::move(row));

    // Cover estimates: the profile's Ĉ, the curve's k = 1 baseline, and ks.
    out.estimates += 2 + ks.size();
    out.lane_estimates +=
        2 * count_lanes(options.mc.max_trials, 1, pool.size());
    for (unsigned k : ks) {
      out.lane_estimates += count_lanes(options.mc.max_trials, k, pool.size());
    }
    const std::uint64_t steps =
        tracer.spans().back().counters[static_cast<std::size_t>(
            obs::Metric::kSteps)];
    if (steps > heaviest_steps) {
      heaviest_steps = steps;
      heaviest = state.instances.size() - 1;
    }
  }
  out.result.tables.push_back(mw::make_table1_result_table(rows, ks));

  // The kernel probe walks the family whose speed-up curve walked most.
  const mw::FamilyInstance& probe = state.instances[heaviest];
  out.kernel_k = log_n;
  out.kernel_label = probe.name;
  out.kernel_trial = [&probe, k = log_n](mw::Rng& rng) {
    const std::vector<mw::Vertex> starts(k, probe.start);
    return mw::sample_cover_to_target(
        mw::CsrSubstrate(probe.graph), starts, probe.graph.num_vertices(), rng,
        mw::lane_cover_options());
  };
  return out;
}

// --- giant-torus: run_giant_torus's one estimate ----------------------------

mw::Vertex torus_side(const cli::ExperimentParams& params) {
  const std::uint64_t requested_n = std::max<std::uint64_t>(
      cli::resolve_n(cli::preset_for("giant-torus-speedup"), params), 9);
  return static_cast<mw::Vertex>(std::max<std::uint64_t>(
      3, static_cast<std::uint64_t>(
             std::llround(std::sqrt(static_cast<double>(requested_n))))));
}

TraceOutput trace_giant_torus(const cli::ExperimentParams& params,
                              mw::ThreadPool& pool,
                              Tracer& tracer, WorkloadState& state) {
  const cli::ExperimentPreset& preset = cli::preset_for("giant-torus-speedup");
  const mw::Vertex side = torus_side(params);
  const mw::TorusSubstrate& substrate = state.torus.emplace(side);
  const std::uint64_t trials = cli::resolve_trials(preset, params);
  const std::vector<unsigned> ks =
      cli::geometric_ks(cli::resolve_kmax(preset, params));
  const mw::Vertex target = cli::clamp_cover_target(
      cli::resolve_target(preset, params), substrate.num_vertices());

  const double d = static_cast<double>(target);
  mw::CoverOptions cover = mw::lane_cover_options();
  cover.step_cap =
      static_cast<std::uint64_t>(64.0 * d * std::max(std::log(d), 1.0));
  cover.lane_shards = params.lane_shards;
  mw::McOptions mc = cli::preset_mc(trials);
  mc.seed = mw::mix64(params.seed ^ 0x9a7052e5ULL);

  const std::string label = "torus " + std::to_string(side) + "x" +
                            std::to_string(side) + " to " +
                            std::to_string(target);
  const std::vector<mw::SpeedupEstimate> curve = tracer.time(
      "mc.estimate", "estimate_speedup_curve_to_target", label, [&] {
        return mw::estimate_speedup_curve_to_target(substrate, 0, target, ks,
                                                    mc, cover, &pool);
      });

  // The CLI's speed-up table is private to its runner, so run.py checks
  // these raw estimates against that table's cells instead.
  TraceOutput out;
  mw::JsonWriter json;
  json.begin_array();
  for (const mw::SpeedupEstimate& p : curve) {
    json.begin_object()
        .key("k").value_u64(p.k)
        .key("mean").value_num(p.multi.ci.mean)
        .key("half_width").value_num(p.multi.ci.half_width)
        .key("speedup").value_num(p.speedup)
        .key("speedup_half_width").value_num(p.half_width)
        .end_object();
  }
  json.end_array();
  out.curve_json = json.take();
  out.estimates = ks.size();  // the k = 1 point reuses the baseline
  for (unsigned k : ks) {
    out.lane_estimates += cover.lane_shards > 0
                              ? 1
                              : count_lanes(mc.max_trials, k, pool.size());
  }
  out.kernel_k = ks.back();
  out.kernel_label = label;
  out.kernel_trial = [&substrate, k = ks.back(), target,
                      step_cap = cover.step_cap](mw::Rng& rng) {
    const std::vector<mw::Vertex> starts(k, 0);
    mw::CoverOptions serial = mw::lane_cover_options();
    serial.step_cap = step_cap;
    return mw::sample_cover_to_target(substrate, starts, target, rng, serial);
  };
  return out;
}

// --- mwg-sharded / mwg-ooc: mwg-starts on a stored graph --------------------

std::string store_json(std::uint64_t bytes, std::uint64_t blocks) {
  mw::JsonWriter json;
  json.begin_object()
      .key("bytes").value_u64(bytes)
      .key("blocks").value_u64(blocks)
      .end_object();
  return json.take();
}

TraceOutput trace_mwg_incore(const cli::ExperimentParams& params,
                             mw::ThreadPool& pool,
                             Tracer& tracer, WorkloadState& state) {
  const mw::MappedGraph& mapped = tracer.time(
      "storage.open", "MappedGraph", params.graph,
      [&]() -> mw::MappedGraph& { return state.mapped.emplace(params.graph); });
  TraceOutput out;
  out.result = tracer.time("mc.estimate", "run_mwg_starts_on_substrate",
                           params.graph, [&] {
                             return cli::run_mwg_starts_on_substrate(
                                 mapped.substrate(), params.graph, params, pool,
                                 mw::lane_cover_options());
                           });
  out.store_json = store_json(mapped.file_bytes(), mapped.num_blocks());
  const auto k = static_cast<unsigned>(params.k);
  const bool lanes =
      params.lane_shards > 0 || count_lanes(params.trials, k, pool.size()) == 1;
  out.estimates = 3;  // same-vertex, stationary and uniform starts
  out.lane_estimates = lanes ? 3 : 0;
  out.kernel_k = k;
  out.kernel_label = params.graph;
  out.kernel_trial = [&mapped, k](mw::Rng& rng) {
    const mw::CsrSubstrate substrate = mapped.substrate();
    const std::vector<mw::Vertex> starts(k, 0);
    return mw::sample_cover_to_target(substrate, starts,
                                      substrate.num_vertices(), rng,
                                      mw::lane_cover_options());
  };
  return out;
}

TraceOutput trace_mwg_blocked(const cli::ExperimentParams& params,
                              mw::ThreadPool& pool,
                              Tracer& tracer, WorkloadState& state) {
  const std::uint64_t budget = mw::parse_byte_size(params.mem_budget);
  mw::BlockWalkEngine& engine = tracer.time(
      "storage.open", "BlockedGraph", params.graph,
      [&]() -> mw::BlockWalkEngine& {
        return state.engine.emplace(state.blocked.emplace(params.graph),
                                    budget);
      });
  const mw::BlockedGraph& graph = *state.blocked;
  // The blocked runner is private to the CLI: run it through the registry
  // exactly as `manywalks run mwg-starts --block-walk` does. It opens the
  // store again; the storage.open span above times that open on its own.
  const cli::Experiment* experiment =
      cli::default_registry().find("mwg-starts");
  TraceOutput out;
  out.result = tracer.time("mc.estimate", "mwg-starts --block-walk",
                           params.graph,
                           [&] { return experiment->run(params, pool); });
  out.store_json = store_json(graph.file_bytes(), graph.num_blocks());
  out.estimates = 3;
  out.lane_estimates = 3;  // the shared engine pins serial kLanes trials
  const auto k = static_cast<unsigned>(params.k);
  out.kernel_k = k;
  out.kernel_label = params.graph + " (block engine)";
  out.kernel_trial = [&engine, &graph, k](mw::Rng& rng) {
    const std::vector<mw::Vertex> starts(k, 0);
    engine.reset(starts);
    engine.reset_stats();
    return engine.run_until_visited(graph.num_vertices(), rng,
                                    mw::lane_cover_options());
  };
  return out;
}

// --- modes -------------------------------------------------------------------

/// Builds the workload's graph and returns; run.py times the process.
int run_setup(const std::string& workload,
              const cli::ExperimentParams& params) {
  if (workload == "table1") {
    const std::uint64_t n =
        cli::resolve_n(cli::preset_for("table1_summary"), params);
    for (mw::GraphFamily family : mw::table1_families()) {
      mw::make_family_instance(family, n, params.seed);
    }
  } else if (workload == "giant-torus") {
    const mw::TorusSubstrate substrate(torus_side(params));
    mw::pooled_substrate_engine(substrate);
  } else if (workload == "mwg-sharded") {
    const mw::MappedGraph mapped(params.graph);
  } else if (workload == "mwg-ooc") {
    const mw::BlockedGraph graph(params.graph);
    const mw::BlockWalkEngine engine(graph,
                                     mw::parse_byte_size(params.mem_budget));
  } else {
    std::cerr << "perfbench_probe: unknown workload '" << workload
              << "'\n";
    return 1;
  }
  return 0;
}

int run_trace(const std::string& workload,
              const cli::ExperimentParams& params) {
  mw::ThreadPool pool(params.threads);
  WorkloadState state;
  TraceOutput out;
  std::string emitted;
  std::vector<Span> spans;
  double workload_s = 0.0;
  {
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    if (workload == "table1") {
      out = trace_table1(params, pool, tracer, state);
    } else if (workload == "giant-torus") {
      out = trace_giant_torus(params, pool, tracer, state);
    } else if (workload == "mwg-sharded") {
      out = trace_mwg_incore(params, pool, tracer, state);
    } else if (workload == "mwg-ooc") {
      out = trace_mwg_blocked(params, pool, tracer, state);
    } else {
      std::cerr << "perfbench_probe: unknown workload '" << workload
                << "'\n";
      return 1;
    }
    const cli::SinkOptions sink{cli::OutputFormat::kJson, ""};
    std::ostringstream os;
    tracer.time("cli.emit", "emit_result", "json", [&] {
      cli::emit_result(out.result, sink, os);
      return 0;
    });
    emitted = os.str();
    workload_s = seconds_since(start);
    spans = tracer.spans();
  }

  // Single-thread kernel probe, untraced: the same trial three times
  // (identical work each time), median token-steps per thread-CPU second.
  std::vector<double> rates;
  std::uint64_t token_steps = 0;
  for (int rep = 0; rep < 3; ++rep) {
    mw::Rng rng = mw::make_trial_rng(params.seed, 0);
    const double cpu0 = thread_cpu_seconds();
    const mw::CoverSample sample = out.kernel_trial(rng);
    const double cpu = thread_cpu_seconds() - cpu0;
    token_steps = sample.steps * out.kernel_k;
    rates.push_back(static_cast<double>(token_steps) / std::max(cpu, 1e-9));
  }
  std::sort(rates.begin(), rates.end());

  mw::JsonWriter json;
  json.begin_object()
      .key("workload").value_str(workload)
      .key("workload_s").value_num(workload_s)
      .key("estimates").value_u64(out.estimates)
      .key("lane_estimates").value_u64(out.lane_estimates);
  json.key("spans").begin_array();
  for (const Span& span : spans) {
    json.begin_object()
        .key("layer").value_str(span.layer)
        .key("call").value_str(span.call)
        .key("label").value_str(span.label)
        .key("s").value_num(span.seconds);
    json.key("counters").begin_object();
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
      const auto metric = static_cast<obs::Metric>(i);
      if (obs::metric_kind(metric) != obs::MetricKind::kCounter) continue;
      json.key(obs::metric_name(metric)).value_u64(span.counters[i]);
    }
    json.end_object().end_object();
  }
  json.end_array();
  json.key("kernel").begin_object()
      .key("label").value_str(out.kernel_label)
      .key("k").value_u64(out.kernel_k)
      .key("token_steps").value_u64(token_steps)
      .key("steps_per_cpu_s").value_num(rates[rates.size() / 2])
      .end_object();
  json.key("store").value_raw(out.store_json.empty() ? "null" : out.store_json);
  json.key("curve").value_raw(out.curve_json.empty() ? "null" : out.curve_json);
  json.key("result").value_raw(emitted);
  json.end_object();
  std::cout << json.take() << '\n';
  return 0;
}

/// `exec`: runs argv[4..] as a child and writes its exit code, wall and
/// CPU seconds and peak RSS to the --rusage file. run.py starts every
/// measured CLI run through this small process: a child spawned straight
/// from the Python harness reports the harness's own peak RSS, because
/// exec keeps the larger of the old and the new peak.
int run_exec(int argc, char** argv) {
  const std::string_view flag = argc > 2 ? argv[2] : "";
  const std::string_view prefix = "--rusage=";
  if (argc < 5 || flag.substr(0, prefix.size()) != prefix ||
      std::string_view(argv[3]) != "--") {
    std::cerr << "usage: perfbench_probe exec --rusage=FILE -- CMD [ARGS]\n";
    return 1;
  }
  const Clock::time_point start = Clock::now();
  char** command = argv + 4;
  pid_t pid = 0;
  if (posix_spawnp(&pid, command[0], nullptr, nullptr, command, environ)) {
    std::cerr << "perfbench_probe: cannot run " << command[0] << '\n';
    return 127;
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return 127;
  const double wall = seconds_since(start);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  mw::JsonWriter json;
  json.begin_object()
      .key("code").value_i64(code)
      .key("wall_s").value_num(wall)
      .key("cpu_s").value_num(seconds(usage.ru_utime) +
                              seconds(usage.ru_stime))
      .key("maxrss_kb").value_i64(usage.ru_maxrss)
      .end_object();
  std::ofstream(std::string(flag.substr(prefix.size())))
      << json.take() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view mode = argc < 2 ? "" : argv[1];
  if (mode == "exec") return run_exec(argc, argv);
  if (mode != "setup" && mode != "trace") {
    std::cerr << "usage: perfbench_probe setup|trace --workload=W [flags]\n"
                 "       perfbench_probe exec --rusage=FILE -- CMD [ARGS]\n";
    return 1;
  }
  std::string workload;
  cli::ExperimentParams params;
  params.seed = 1;
  params.threads = 1;
  mw::ArgParser parser("perfbench_probe " + std::string(mode),
                       "layer-timed re-composition of a benchmark workload");
  parser.add_option("workload", &workload, "table1, giant-torus, "
                                           "mwg-sharded or mwg-ooc")
      .add_option("seed", &params.seed, "master seed")
      .add_option("threads", &params.threads, "worker threads")
      .add_option("n", &params.n, "graph size (table1, giant-torus)")
      .add_option("kmax", &params.kmax, "largest k (giant-torus)")
      .add_option("target", &params.target, "coverage target (giant-torus)")
      .add_option("k", &params.k, "walks (mwg-*)")
      .add_option("trials", &params.trials, "trials (mwg-*)")
      .add_option("lane-shards", &params.lane_shards,
                  "lane shards (mwg-sharded)")
      .add_option("graph", &params.graph, "stored .mwg graph (mwg-*)")
      .add_flag("block-walk", &params.block_walk,
                "out-of-core engine (mwg-ooc)")
      .add_option("mem-budget", &params.mem_budget, "extent budget (mwg-ooc)");
  if (!parser.parse(argc - 1, argv + 1)) return 1;
  try {
    return mode == "setup" ? run_setup(workload, params)
                           : run_trace(workload, params);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << '\n';
    return 1;
  }
}
