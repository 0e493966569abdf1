// Registrations for the stored-graph experiments: `--graph=FILE.mwg`
// versions of the paper's speed-up and start-placement measurements,
// running the walk engine zero-copy off a memory-mapped mwg file. This is
// how the k-walk results get measured on real-world graphs (SNAP dumps
// via `manywalks graph convert`) instead of only the synthetic families.
//
// `--block-walk` switches both experiments to the out-of-core
// block-scheduled engine (walk/block_engine.hpp) with an explicit
// `--mem-budget`: the graph must be mwg v2, only its metadata stays
// resident, and — determinism contract v4 — every number in the tables
// is bit-identical to the in-core run at any budget. Each experiment has
// one body, templated on the trial walker (mc/estimators.hpp), that both
// execution models run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "cli/experiments_mwg.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "util/options.hpp"
#include "walk/block_engine.hpp"
#include "walk/sampling.hpp"

namespace manywalks::cli {

namespace {

Vertex checked_start(const char* name, const ExperimentParams& params,
                     Vertex n) {
  MW_REQUIRE(params.start < n, name << ": --start " << params.start
                                    << " out of range (n=" << n << ")");
  return static_cast<Vertex>(params.start);
}

const std::string& required_graph(const char* name,
                                  const ExperimentParams& params) {
  MW_REQUIRE(!params.graph.empty(),
             name << " needs --graph=FILE.mwg (create one with `manywalks "
                     "graph gen` or `manywalks graph convert`)");
  return params.graph;
}

std::string substrate_preamble(const CsrSubstrate& substrate,
                               const std::string& source) {
  return "stored graph " + source + ": n = " +
         format_count(substrate.num_vertices()) + ", arcs = " +
         format_count(substrate.offsets().back()) +
         " — adjacency memory-mapped read-only; the engine binds the "
         "mapped arrays through the same CsrSubstrate as an in-core graph, "
         "so the streams are bit-identical.";
}

// --- shared table/notes builders (in-core and blocked runs emit the same
// rows, which is how the v4 bit-identity contract stays visible in the
// output, not just in the goldens) -----------------------------------------

ResultTable speedup_table(const std::string& source, Vertex start,
                          Vertex target, Vertex n,
                          const std::vector<SpeedupEstimate>& curve) {
  ResultTable table("speedup",
                    source + " — S^k from vertex " + format_count(start) +
                        (target == n ? " (full cover)"
                                     : ", rounds to visit " +
                                           format_count(target) +
                                           " distinct vertices"));
  table.add_column("k")
      .add_column("C^k")
      .add_column("S^k")
      .add_column("S^k / k")
      .add_column("S^k / ln k");
  for (const SpeedupEstimate& p : curve) {
    table.begin_row();
    table.count(p.k);
    table.mean_pm(p.multi);
    table.mean_pm(p);
    table.real(p.speedup / p.k, 3);
    if (p.k >= 2) {
      table.real(p.speedup / std::log(static_cast<double>(p.k)), 3);
    } else {
      table.blank();
    }
  }
  return table;
}

std::vector<std::string> speedup_notes() {
  return {
      "Conjectures 10/11 predict log k ≲ S^k ≲ k on ANY graph: the last "
      "two columns bracket",
      "where this graph falls between the cycle's Θ(log k) and the "
      "expander's Θ(k) regimes."};
}

ResultTable starts_table(const std::string& source, unsigned k, Vertex start,
                         const McResult& same, const McResult& stationary,
                         const McResult& uniform) {
  ResultTable table("starts", source + " — C^k (k = " + format_count(k) +
                                  ") by start placement");
  table.add_column("placement", /*left=*/true)
      .add_column("C^k")
      .add_column("vs same-vertex");
  table.begin_row();
  table.text("same-vertex (" + format_count(start) + ")");
  table.mean_pm(same);
  table.real(1.0, 3);
  table.begin_row();
  table.text("stationary");
  table.mean_pm(stationary);
  table.real(same.ci.mean / stationary.ci.mean, 3);
  table.begin_row();
  table.text("uniform");
  table.mean_pm(uniform);
  table.real(same.ci.mean / uniform.ci.mean, 3);
  return table;
}

std::vector<std::string> starts_notes() {
  return {
      "Placement sensitivity locates the graph on the paper's map: "
      "irrelevant on expanders",
      "(walks disperse within t_mix), ~constant-factor on tori, decisive "
      "around bottlenecks",
      "(Thm 7's barbell center). Stationary starts are re-drawn per trial "
      "(§1.1 setting)."};
}

// --- out-of-core (--block-walk) runners -------------------------------

constexpr std::uint64_t kDefaultMemBudget = std::uint64_t{256} << 20;

std::uint64_t resolve_mem_budget(const ExperimentParams& params) {
  return params.mem_budget.empty() ? kDefaultMemBudget
                                   : parse_byte_size(params.mem_budget);
}

std::string blocked_preamble(const BlockedGraph& graph,
                             const std::string& source,
                             std::uint64_t budget) {
  std::string text =
      "stored graph " + source + ": n = " +
      format_count(graph.num_vertices()) + ", arcs = " +
      format_count(graph.num_arcs()) + " — mwg v2, " +
      format_count(graph.num_blocks()) + " blocks of 2^" +
      std::to_string(graph.block_bits()) +
      " vertices; block-scheduled out-of-core engine with a " +
      format_count(budget) +
      "-byte resident-extent budget (graph metadata stays resident). ";
  // The cache always keeps the extent it just read, so a budget below the
  // largest extent is exceeded, not honored.
  if (const std::uint64_t largest = graph.largest_extent_bytes();
      budget < largest) {
    text += "The budget is below the largest extent, so the cache still "
            "holds one extent of up to " +
            format_count(largest) + " bytes. ";
  }
  return text +
         "Results are bit-identical to the in-core run at any budget "
         "(determinism contract v4).";
}

std::string blocked_cache_note(const BlockedRunTotals& totals) {
  // Counters reset per trial (see sample_cover_to_target on BlockedTrials),
  // so these are per-trial aggregates: totals are sums of independent trial
  // readings and the peak is a true heaviest-trial figure.
  std::string note =
      "block engine (" + format_count(totals.trials) +
      " trials, counters reset per trial): " +
      format_count(totals.cache_loads) + " extent loads (" +
      format_count(totals.cache_hits) + " cache hits";
  const std::uint64_t lookups = totals.cache_loads + totals.cache_hits;
  if (lookups > 0) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), ", %.1f%%",
                  100.0 * static_cast<double>(totals.cache_hits) /
                      static_cast<double>(lookups));
    note += rate;
  }
  note += ", " + format_count(totals.cache_evictions) + " evictions), " +
          format_count(totals.cache_bytes_loaded) + " bytes streamed (peak " +
          format_count(totals.peak_trial_bytes_loaded) + "/trial) across " +
          format_count(totals.horizons) + " horizons / " +
          format_count(totals.bucket_passes) + " bucket passes.";
  return note;
}

/// The --block-walk execution model: the v2 store, one engine shared by
/// every trial under the resolved budget, and the per-trial totals.
struct BlockedRun {
  BlockedRun(const char* name, const ExperimentParams& params)
      : graph(required_graph(name, params)),
        budget(resolve_mem_budget(params)),
        engine(graph, budget) {}

  BlockedTrials walker() { return {engine, &totals}; }

  /// Adds what only an out-of-core run reports: the budget, the store's
  /// block layout and the extent-cache note.
  ExperimentResult annotate(ExperimentResult result,
                            const std::string& source) const {
    push_param(result, "mem_budget", budget);
    result.preamble.push_back(blocked_preamble(graph, source, budget));
    result.notes.push_back(blocked_cache_note(totals));
    return result;
  }

  BlockedGraph graph;
  std::uint64_t budget;
  BlockWalkEngine engine;
  BlockedRunTotals totals;
};

// --- the experiment bodies, one per experiment for both walkers ------------

template <TrialWalker W>
ExperimentResult mwg_speedup(const W& walker, const std::string& source,
                             const ExperimentParams& params, ThreadPool& pool,
                             const CoverOptions& cover) {
  const ExperimentPreset& preset = preset_for("mwg-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("mwg-speedup", resolve_kmax(preset, params));
  const Vertex n = walker.num_vertices();
  const Vertex start = checked_start("mwg-speedup", params, n);
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);
  const std::vector<unsigned> ks = geometric_ks(k_limit);

  CoverOptions cover_run = cover;
  cover_run.lane_shards = params.lane_shards;
  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x3396a1ULL);
  const std::vector<SpeedupEstimate> curve = estimate_speedup_curve_to_target(
      walker, start, target, ks, mc, cover_run, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  push_trial_plan(result, plan_trials(walker, ks.back(), mc,
                                      params.lane_shards, &pool));
  result.tables.push_back(speedup_table(source, start, target, n, curve));
  result.notes = speedup_notes();
  return result;
}

/// `offsets` is the graph's CSR row index, which stationary starts are
/// drawn from.
template <TrialWalker W>
ExperimentResult mwg_starts(const W& walker,
                            std::span<const std::uint64_t> offsets,
                            const std::string& source,
                            const ExperimentParams& params, ThreadPool& pool,
                            const CoverOptions& cover) {
  const ExperimentPreset& preset = preset_for("mwg-starts");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const auto k = static_cast<unsigned>(checked_walk_count(
      "mwg-starts", std::max<std::uint64_t>(resolve_k(preset, params), 1)));
  const Vertex n = walker.num_vertices();
  const Vertex start = checked_start("mwg-starts", params, n);
  // One plan for all three placements: each runs k lanes.
  const McOptions mc = preset_mc(trials);
  const TrialPlan plan = plan_trials(walker, k, mc, params.lane_shards, &pool);

  McOptions same_mc = mc;
  same_mc.seed = mix64(seed ^ 0x3a11ULL);
  const McResult same = run_cover_trials(
      walker, plan, n, fixed_starts(std::vector<Vertex>(k, start)), same_mc,
      cover);

  McOptions stationary_mc = mc;
  stationary_mc.seed = mix64(seed ^ 0x3a22ULL);
  const McResult stationary = run_cover_trials(
      walker, plan, n, stationary_starts(offsets, k), stationary_mc, cover);

  McOptions uniform_mc = mc;
  uniform_mc.seed = mix64(seed ^ 0x3a33ULL);
  const McResult uniform = run_cover_trials(
      walker, plan, n, uniform_starts(n, k), uniform_mc, cover);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "k", static_cast<std::uint64_t>(k));
  push_trial_plan(result, plan);
  result.tables.push_back(
      starts_table(source, k, start, same, stationary, uniform));
  result.notes = starts_notes();
  return result;
}

ExperimentResult run_mwg_speedup(const ExperimentParams& params,
                                 ThreadPool& pool) {
  MW_REQUIRE(params.mem_budget.empty() || params.block_walk,
             "--mem-budget only applies with --block-walk");
  if (!params.block_walk) {
    const MappedGraph mapped(required_graph("mwg-speedup", params));
    return run_mwg_speedup_on_substrate(mapped.substrate(), params.graph,
                                        params, pool, CoverOptions{});
  }
  BlockedRun run("mwg-speedup", params);
  return run.annotate(
      mwg_speedup(run.walker(), params.graph, params, pool, CoverOptions{}),
      params.graph);
}

ExperimentResult run_mwg_starts(const ExperimentParams& params,
                                ThreadPool& pool) {
  MW_REQUIRE(params.mem_budget.empty() || params.block_walk,
             "--mem-budget only applies with --block-walk");
  if (!params.block_walk) {
    const MappedGraph mapped(required_graph("mwg-starts", params));
    return run_mwg_starts_on_substrate(mapped.substrate(), params.graph,
                                       params, pool, CoverOptions{});
  }
  BlockedRun run("mwg-starts", params);
  return run.annotate(mwg_starts(run.walker(), run.graph.offsets(),
                                 params.graph, params, pool, CoverOptions{}),
                      params.graph);
}

}  // namespace

ExperimentResult run_mwg_speedup_on_substrate(const CsrSubstrate& substrate,
                                              const std::string& source,
                                              const ExperimentParams& params,
                                              ThreadPool& pool,
                                              const CoverOptions& cover) {
  ExperimentResult result = mwg_speedup(substrate, source, params, pool, cover);
  result.preamble.push_back(substrate_preamble(substrate, source));
  return result;
}

ExperimentResult run_mwg_starts_on_substrate(const CsrSubstrate& substrate,
                                             const std::string& source,
                                             const ExperimentParams& params,
                                             ThreadPool& pool,
                                             const CoverOptions& cover) {
  ExperimentResult result = mwg_starts(substrate, substrate.offsets(), source,
                                       params, pool, cover);
  result.preamble.push_back(substrate_preamble(substrate, source));
  return result;
}

void register_mwg_experiments(ExperimentRegistry& registry) {
  registry.add({"mwg-speedup",
                "stored .mwg graph via mmap: the paper's S^k curve",
                "Thms 6/8/18 machinery on stored graphs",
                /*default_seed=*/51,
                {ExtraParam::kGraph, ExtraParam::kKmax, ExtraParam::kTarget,
                 ExtraParam::kStart, ExtraParam::kLaneShards,
                 ExtraParam::kBlockWalk, ExtraParam::kMemBudget}},
               run_mwg_speedup);
  registry.add({"mwg-starts",
                "stored .mwg graph via mmap: C^k by start placement",
                "§1.1 / Lemma 19 setting on stored graphs",
                /*default_seed=*/52,
                {ExtraParam::kGraph, ExtraParam::kK, ExtraParam::kStart,
                 ExtraParam::kLaneShards, ExtraParam::kBlockWalk,
                 ExtraParam::kMemBudget}},
               run_mwg_starts);
}

}  // namespace manywalks::cli
