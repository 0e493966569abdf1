// The experiment registry + sinks behind the `manywalks` CLI: registration
// invariants, golden JSON/CSV serialization, reproducibility of a runner,
// a minimal-size smoke run of every registered experiment, and the
// docs/REPRODUCING.md coverage contract enforced in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/driver.hpp"
#include "cli/experiments_common.hpp"
#include "cli/presets.hpp"
#include "cli/registry.hpp"
#include "cli/sinks.hpp"
#include "graph/generators.hpp"
#include "storage/mwg.hpp"

namespace manywalks::cli {
namespace {

ExperimentResult empty_runner(const ExperimentParams&, ThreadPool&) {
  return {};
}

// --- registry ---------------------------------------------------------------

TEST(Registry, DefaultRegistryHasAllExperiments) {
  const ExperimentRegistry& registry = default_registry();
  EXPECT_GE(registry.size(), 17u);
  for (const Experiment* experiment : registry.list()) {
    SCOPED_TRACE(experiment->info.name);
    EXPECT_FALSE(experiment->info.summary.empty());
    EXPECT_FALSE(experiment->info.claim.empty());
    EXPECT_NE(experiment->runner, nullptr);
    // Every registered experiment has a preset row (shared quick/--full
    // sizes) so docs and the CLI agree on the defaults.
    EXPECT_NE(find_preset(experiment->info.name), nullptr);
  }
  for (const char* name :
       {"table1_summary", "fig_cycle_speedup", "fig_expander_speedup",
        "fig_grid_spectrum", "fig_grid_lower_bound", "fig_barbell_speedup",
        "fig_conjectures", "fig_matthews_bounds", "fig_mixing_bound",
        "fig_lemma16", "fig_aldous_concentration", "fig_stationary_start",
        "fig_start_placement", "giant-cycle-speedup", "giant-torus-speedup",
        "mwg-speedup", "mwg-starts"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(default_registry().find("fig_does_not_exist"), nullptr);
  EXPECT_EQ(default_registry().find(""), nullptr);
}

TEST(Registry, DuplicateNameRejected) {
  ExperimentRegistry registry;
  registry.add({"exp", "summary", "claim", 1, {}}, empty_runner);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.add({"exp", "other", "other", 2, {}}, empty_runner),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, RejectsEmptyNameAndNullRunner) {
  ExperimentRegistry registry;
  EXPECT_THROW(registry.add({"", "s", "c", 1, {}}, empty_runner),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"ok", "s", "c", 1, {}}, ExperimentRunner{}),
               std::invalid_argument);
}

TEST(Registry, RunStampsCensoredCellTally) {
  // Runners don't have to remember to surface censoring: the registry
  // counts flagged cells after the runner returns.
  ExperimentRegistry registry;
  registry.add({"exp", "summary", "claim", 1, {}},
               [](const ExperimentParams&, ThreadPool&) {
                 ExperimentResult result;
                 McResult capped;
                 capped.ci.mean = 100.0;
                 capped.ci.half_width = 1.0;
                 capped.censored = 3;
                 ResultTable table("tbl", "Title");
                 table.add_column("est").add_column("clean");
                 table.begin_row();
                 table.mean_pm(capped);
                 table.mean_pm(5.0, 0.5);
                 result.tables.push_back(std::move(table));
                 return result;
               });
  ThreadPool pool(1);
  const ExperimentResult result =
      registry.find("exp")->run(ExperimentParams{}, pool);
  EXPECT_EQ(result.censored_cells, 1u);
  EXPECT_NE(render_json(result).find("\"censored\": 3"), std::string::npos);
}

TEST(Registry, CensoredLegendCountsOneTable) {
  ResultTable table("tbl", "Title");
  table.add_column("a").add_column("b").add_column("c");
  table.begin_row().mean_pm(1.0, 0.1, 4, 2).mean_pm(1.0, 0.1).mean_pm(
      1.0, 0.1, 4, 1);
  EXPECT_EQ(count_censored_cells(table), 2u);
  EXPECT_EQ(censored_legend(0), "");
  EXPECT_EQ(censored_legend(count_censored_cells(table)),
            "WARNING: 2 estimate(s) marked † include step-cap-censored "
            "trials; their means are lower bounds.\n");
}

TEST(Registry, GeometricKsIsOverflowSafe) {
  const std::vector<unsigned> doubling = geometric_ks(64);
  EXPECT_EQ(doubling, (std::vector<unsigned>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(geometric_ks(1), std::vector<unsigned>{1});
  EXPECT_EQ(geometric_ks(0), std::vector<unsigned>{1});
  EXPECT_EQ(geometric_ks(256, 4), (std::vector<unsigned>{1, 4, 16, 64, 256}));
  // A 64-bit --kmax must terminate (no wrap-around loop) and stay within
  // the unsigned range.
  const auto huge =
      geometric_ks(std::numeric_limits<std::uint64_t>::max());
  ASSERT_FALSE(huge.empty());
  EXPECT_LE(huge.size(), 32u);
  EXPECT_EQ(huge.back(), 1u << 31);
}

TEST(Registry, GiantExperimentsHandleDegenerateTargets) {
  // --target 1 is degenerate (the start vertex covers it at t = 0); the
  // runner clamps to 2 instead of aborting inside combine_speedup.
  const Experiment* experiment =
      default_registry().find("giant-cycle-speedup");
  ASSERT_NE(experiment, nullptr);
  ExperimentParams params;
  params.seed = experiment->info.default_seed;
  params.n = 48;
  params.trials = 8;
  params.kmax = 2;
  params.target = 1;
  ThreadPool pool(2);
  const ExperimentResult result = experiment->run(params, pool);
  ASSERT_FALSE(result.tables.empty());
  EXPECT_FALSE(result.tables.front().rows().empty());
}

TEST(Registry, PresetResolutionPrefersExplicitFlags) {
  const ExperimentPreset& preset = preset_for("fig_cycle_speedup");
  ExperimentParams params;
  EXPECT_EQ(resolve_n(preset, params), preset.quick_n);
  params.full = true;
  EXPECT_EQ(resolve_n(preset, params), preset.full_n);
  params.n = 99;
  EXPECT_EQ(resolve_n(preset, params), 99u);

  const McOptions mc = preset_mc(100);
  EXPECT_EQ(mc.min_trials, 25u);
  EXPECT_EQ(mc.max_trials, 100u);
  EXPECT_EQ(preset_mc(8).min_trials, 8u);  // floor at 8
}

TEST(Registry, TrialCountsBelowTheFloorRunExactly) {
  // --trials below the batch floor of 8 runs exactly that many trials
  // (the floor must never exceed max_trials).
  for (const std::uint64_t trials : {1u, 7u, 8u}) {
    SCOPED_TRACE(trials);
    const McOptions mc = preset_mc(trials);
    EXPECT_EQ(mc.min_trials, trials);
    EXPECT_EQ(mc.max_trials, trials);

    const std::filesystem::path out =
        std::filesystem::temp_directory_path() /
        ("manywalks_test_cli_trials_" + std::to_string(trials));
    std::filesystem::remove_all(out);
    std::vector<std::string> args = {"run", "--n=33",
                                     "--trials=" + std::to_string(trials),
                                     "--format=json", "--out=" + out.string()};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    EXPECT_EQ(run_experiment_main("table1_summary",
                                  static_cast<int>(argv.size()), argv.data()),
              0);
    std::ifstream json(out / "table1_summary.json");
    std::stringstream text;
    text << json.rdbuf();
    EXPECT_NE(text.str().find("\"trials\": " + std::to_string(trials)),
              std::string::npos);
    std::filesystem::remove_all(out);
  }
}

/// Runs `manywalks run <name> <args...>`; returns the exit code and what
/// the run wrote to stderr.
std::pair<int, std::string> run_capturing_stderr(
    const std::string& name, std::vector<std::string> args) {
  args.insert(args.begin(), "run");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  std::ostringstream err;
  std::streambuf* const saved = std::cerr.rdbuf(err.rdbuf());
  const int code = run_experiment_main(name.c_str(),
                                       static_cast<int>(argv.size()),
                                       argv.data());
  std::cerr.rdbuf(saved);
  return {code, err.str()};
}

/// A rejected flag value exits 1 before any walk runs, with a message
/// that names the flag, its value and its limit, and no source location.
void expect_rejected_at_flag(const std::string& name,
                             std::vector<std::string> args,
                             const std::string& flag,
                             const std::string& limit) {
  SCOPED_TRACE(name + " " + flag);
  const auto [code, err] = run_capturing_stderr(name, std::move(args));
  EXPECT_EQ(code, 1);
  EXPECT_EQ(err.rfind(name + ": " + flag, 0), 0u) << err;
  EXPECT_NE(err.find(limit), std::string::npos) << err;
  EXPECT_EQ(err.find("requirement violated"), std::string::npos) << err;
  EXPECT_EQ(err.find("[src/"), std::string::npos) << err;
}

TEST(Registry, SizesOutsideAnExperimentsRangeAreRejectedAtTheFlag) {
  // Lemma 22 (fig_cycle_speedup's upper-bound column) needs ln k <= n/4:
  // at k = 256 the smallest cycle is n = 23.
  expect_rejected_at_flag("fig_cycle_speedup", {"--n=3", "--kmax=256"},
                          "--n=3", "below 23");
  expect_rejected_at_flag("fig_cycle_speedup", {"--n=22", "--kmax=256"},
                          "--n=22", "below 23");
  expect_rejected_at_flag("fig_cycle_speedup", {"--n=2", "--kmax=1"},
                          "--n=2", "below 3");
  expect_rejected_at_flag("fig_cycle_speedup",
                          {"--n=4294967296", "--kmax=2"}, "--n=4294967296",
                          "limit 4294967295");
  // round(sqrt(n)) is the torus side; side 65535 is the largest whose n
  // fits 32 bits, and 65535 * 65536 is the largest n that rounds to it.
  expect_rejected_at_flag("giant-torus-speedup", {"--n=5000000000"},
                          "--n=5000000000", "exceeds 4294901760");
  expect_rejected_at_flag("giant-torus-speedup", {"--n=4294901761"},
                          "--n=4294901761", "exceeds 4294901760");
  expect_rejected_at_flag("giant-cycle-speedup", {"--n=4294967296"},
                          "--n=4294967296", "limit 4294967295");

  // The smallest accepted cycle runs.
  const Experiment* experiment = default_registry().find("fig_cycle_speedup");
  ASSERT_NE(experiment, nullptr);
  ExperimentParams params;
  params.seed = experiment->info.default_seed;
  params.n = 23;
  params.kmax = 256;
  params.trials = 8;
  ThreadPool pool(2);
  const ExperimentResult result = experiment->run(params, pool);
  ASSERT_FALSE(result.tables.empty());
  EXPECT_EQ(result.tables.front().rows().size(), 9u);  // k = 1, 2, ..., 256
}

// --- sinks ------------------------------------------------------------------

ExperimentResult golden_result() {
  ExperimentResult result;
  result.name = "golden";
  result.claim = "claim";
  result.params.emplace_back("seed", ResultCell{std::uint64_t{7}});
  result.params.emplace_back("full", ResultCell{false});
  result.preamble = {"pre line"};
  ResultTable table("tbl", "Title");
  table.add_column("name", /*left=*/true)
      .add_column("count")
      .add_column("value")
      .add_column("est");
  table.begin_row();
  table.text("a,b \"q\"");
  table.count(1234567);
  table.real(1.5, 3);
  table.mean_pm(2.25, 0.5, 3, /*censored=*/2);
  table.rule();
  table.begin_row();
  table.text("line\nbreak");
  table.count(0);
  table.blank();
  table.real(0.1, 4);
  // Non-finite reals: JSON has no spelling for them (null); CSV keeps
  // to_chars' "inf"/"nan"; text keeps format_double's.
  table.begin_row();
  table.text("non-finite");
  table.real(std::numeric_limits<double>::infinity());
  table.real(std::numeric_limits<double>::quiet_NaN());
  table.real(-std::numeric_limits<double>::infinity());
  result.tables.push_back(std::move(table));
  result.notes = {"note 1", "note 2"};
  result.has_verdict = true;
  result.passed = false;
  result.censored_cells = count_censored_cells(result);
  result.elapsed_seconds = 0.5;
  return result;
}

TEST(Sinks, JsonGolden) {
  const std::string expected = R"json({
  "experiment": "golden",
  "claim": "claim",
  "params": {
    "seed": 7,
    "full": false
  },
  "preamble": [
    "pre line"
  ],
  "tables": [
    {
      "id": "tbl",
      "title": "Title",
      "columns": ["name", "count", "value", "est"],
      "rows": [
        ["a,b \"q\"", 1234567, 1.5, {"mean": 2.25, "half_width": 0.5, "censored": 2}],
        ["line\nbreak", 0, null, 0.1],
        ["non-finite", null, null, null]
      ]
    }
  ],
  "notes": [
    "note 1",
    "note 2"
  ],
  "censored_cells": 1,
  "passed": false,
  "elapsed_seconds": 0.5
}
)json";
  EXPECT_EQ(render_json(golden_result()), expected);
}

TEST(Sinks, CsvGoldenWithMeanPmExpansionAndQuoting) {
  const std::string expected =
      "name,count,value,est,est (±),est (censored)\n"
      "\"a,b \"\"q\"\"\",1234567,1.5,2.25,0.5,2\n"
      "\"line\nbreak\",0,,0.1,,\n"
      "non-finite,inf,nan,-inf,,\n";
  EXPECT_EQ(render_csv(golden_result().tables.front()), expected);
}

TEST(Sinks, UncensoredEstimatesRenderWithoutCensoredArtifacts) {
  // The pre-fix shapes are preserved exactly when nothing was censored:
  // no "censored" JSON key, no "(censored)" CSV column, no "†" marker.
  ExperimentResult result;
  result.name = "clean";
  result.claim = "claim";
  ResultTable table("tbl", "Title");
  table.add_column("est");
  table.begin_row();
  table.mean_pm(10.0, 2.0, 3);
  result.tables.push_back(std::move(table));
  const std::string json = render_json(result);
  EXPECT_EQ(json.find("\"censored\":"), std::string::npos);
  EXPECT_NE(json.find("\"censored_cells\": 0"), std::string::npos);
  EXPECT_EQ(render_csv(result.tables.front()),
            "est,est (±)\n10,2\n");
  EXPECT_EQ(cell_text(ResultCell{MeanPmCell{10.0, 2.0, 3}}),
            format_mean_pm(10.0, 2.0, 3));
}

TEST(Sinks, TextRenderMatchesLegacyLayout) {
  // Full bytes: column widths count display columns ("±", "†" are one
  // each), labels pad right, numbers pad left, rules span the table.
  const std::string expected =
      "pre line\n"
      "\n"
      "Title\n"
      "name       |     count | value |         est\n"
      "--------------------------------------------\n"
      "a,b \"q\"    | 1,234,567 |   1.5 | 2.25 ± 0.5†\n"
      "--------------------------------------------\n"
      "line\nbreak |         0 |     - |         0.1\n"
      "non-finite |       inf |   nan |        -inf\n"
      "\n"
      "WARNING: 1 estimate(s) marked † include step-cap-censored trials; "
      "their means are lower bounds.\n"
      "note 1\n"
      "note 2\n"
      "Elapsed: 0.5 s\n";
  std::ostringstream os;
  render_text(golden_result(), os);
  EXPECT_EQ(os.str(), expected);
}

TEST(Sinks, ParseOutputFormat) {
  OutputFormat format = OutputFormat::kText;
  EXPECT_TRUE(parse_output_format("json", &format));
  EXPECT_EQ(format, OutputFormat::kJson);
  EXPECT_TRUE(parse_output_format("csv", &format));
  EXPECT_EQ(format, OutputFormat::kCsv);
  EXPECT_TRUE(parse_output_format("text", &format));
  EXPECT_EQ(format, OutputFormat::kText);
  EXPECT_FALSE(parse_output_format("yaml", &format));
}

TEST(Sinks, CellTextFormatting) {
  EXPECT_EQ(cell_text(ResultCell{}), "-");
  EXPECT_EQ(cell_text(ResultCell{std::string("x")}), "x");
  EXPECT_EQ(cell_text(ResultCell{std::uint64_t{1234567}}),
            format_count(1234567));
  EXPECT_EQ(cell_text(ResultCell{RealCell{3.14159, 3}}),
            format_double(3.14159, 3));
  EXPECT_EQ(cell_text(ResultCell{MeanPmCell{10.0, 2.0, 3}}),
            format_mean_pm(10.0, 2.0, 3));
}

// --- end-to-end: runners ----------------------------------------------------

/// Small stored-graph fixture for the mwg-* experiments (written once; the
/// smoke test must exercise the registered runners' real mmap load path).
const std::string& mwg_smoke_fixture() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "manywalks_test_cli.mwg")
            .string();
    write_mwg(p, make_grid_2d(6));
    return p;
  }();
  return path;
}

ExperimentParams smoke_params(const Experiment& experiment) {
  const std::string& name = experiment.info.name;
  ExperimentParams params;
  params.seed = experiment.info.default_seed;  // as the CLI driver does
  params.trials = 8;
  params.threads = 2;
  params.n = 48;
  if (name == "fig_cycle_speedup") {
    params.n = 33;
    params.kmax = 8;
  } else if (name == "fig_lemma16" || name == "fig_grid_lower_bound" ||
             name == "fig_grid_spectrum") {
    params.n = 36;
  } else if (name == "fig_conjectures") {
    params.n = 32;
  } else if (name == "fig_barbell_speedup") {
    params.n = 31;
  } else if (name == "mwg-speedup" || name == "mwg-starts") {
    params.graph = mwg_smoke_fixture();
    params.kmax = 4;
    params.k = 2;
  }
  return params;
}

TEST(Runners, JsonIsDeterministicForFixedSeed) {
  const Experiment* experiment =
      default_registry().find("fig_cycle_speedup");
  ASSERT_NE(experiment, nullptr);
  const ExperimentParams params = smoke_params(*experiment);
  ThreadPool pool(2);
  const std::string first = render_json(experiment->run(params, pool));
  const std::string second = render_json(experiment->run(params, pool));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"experiment\": \"fig_cycle_speedup\""),
            std::string::npos);
}

TEST(Runners, EveryRegisteredExperimentSmokesAtMinimalSize) {
  ThreadPool pool(2);
  for (const Experiment* experiment : default_registry().list()) {
    const std::string& name = experiment->info.name;
    SCOPED_TRACE(name);
    const ExperimentResult result =
        experiment->run(smoke_params(*experiment), pool);
    EXPECT_EQ(result.name, name);
    EXPECT_EQ(result.claim, experiment->info.claim);
    ASSERT_FALSE(result.tables.empty());
    for (const ResultTable& table : result.tables) {
      SCOPED_TRACE(table.id());
      EXPECT_FALSE(table.id().empty());
      EXPECT_FALSE(table.columns().empty());
      EXPECT_FALSE(table.rows().empty());
      for (const ResultTable::Row& row : table.rows()) {
        EXPECT_LE(row.cells.size(), table.columns().size());
      }
      // Each table serializes through both machine sinks.
      EXPECT_NE(render_csv(table).find('\n'), std::string::npos);
    }
    EXPECT_FALSE(render_json(result).empty());
  }
}

// --- docs contract ----------------------------------------------------------

TEST(Docs, ReproducingGuideListsEveryExperiment) {
  const std::string path =
      std::string(MANYWALKS_SOURCE_DIR) + "/docs/REPRODUCING.md";
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string doc = buffer.str();
  for (const Experiment* experiment : default_registry().list()) {
    EXPECT_NE(doc.find(experiment->info.name), std::string::npos)
        << experiment->info.name
        << " is registered but undocumented in docs/REPRODUCING.md";
  }
}

}  // namespace
}  // namespace manywalks::cli
