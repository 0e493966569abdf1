// Registrations for the start-placement experiments: k walks from the
// stationary distribution (the paper's §1.1 prior-work comparison) and the
// same-vertex vs dispersed placement ablation.
#include <cmath>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "core/experiments.hpp"
#include "theory/closed_forms.hpp"
#include "walk/sampling.hpp"

namespace manywalks::cli {

namespace {

// --- fig_stationary_start (§1.1) --------------------------------------------

ExperimentResult run_stationary_start(const ExperimentParams& params,
                                      ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_stationary_start");
  const std::uint64_t seed = params.seed;
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);

  const McOptions mc = preset_mc(target_trials);
  const std::vector<GraphFamily> families = {
      GraphFamily::kMargulis, GraphFamily::kGrid2d, GraphFamily::kBarbell};
  const std::vector<unsigned> ks = {1, 4, 16, 64};

  ResultTable table("stationary",
                    "Stationary-start vs same-vertex k-walk cover times "
                    "(§1.1)");
  table.add_column("graph", /*left=*/true)
      .add_column("k")
      .add_column("C^k same-vertex")
      .add_column("C^k stationary")
      .add_column("ratio")
      .add_column("Lemma19 n·ln n/k")
      .add_column("BKRU m²ln³n/k²");

  for (GraphFamily family : families) {
    const FamilyInstance instance =
        make_family_instance(family, target_n, seed);
    const double nn = static_cast<double>(instance.graph.num_vertices());
    const double mm = static_cast<double>(instance.graph.num_edges());
    const double ln_n = std::log(nn);
    for (unsigned k : ks) {
      McOptions same = mc;
      same.seed = mix64(seed ^ (0x5a3eULL + k));
      const McResult fixed_start = estimate_k_cover_time(
          instance.graph, instance.start, k, same, CoverOptions{}, &pool);
      McOptions stat = mc;
      stat.seed = mix64(seed ^ (0x57a7ULL + k));
      const McResult stationary = estimate_stationary_start_cover(
          instance.graph, k, stat, CoverOptions{}, &pool);
      table.begin_row();
      table.text(instance.name);
      table.count(k);
      table.mean_pm(fixed_start);
      table.mean_pm(stationary);
      table.real(fixed_start.ci.mean / stationary.ci.mean, 3);
      table.real(nn * ln_n / k);
      table.real(mm * mm * ln_n * ln_n * ln_n / (k * k));
    }
    table.rule();
  }

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  result.tables.push_back(std::move(table));
  result.notes = {
      "Expected: on the expander the stationary column tracks n·ln n/k "
      "(Lemma 19), far",
      "below the BKRU 1/k² bound. On the barbell the comparison flips for "
      "k ≥ 2: center",
      "starts split into both bells AND cover the center for free (Thm 7's "
      "mechanism), while",
      "stationary starts must pay the Θ(n²) bell-to-center hitting time — "
      "the paper's",
      "remark that Thm 7 holds only from v_c is visible here."};
  return result;
}

// --- fig_start_placement (ablation) -----------------------------------------

McResult measure_uniform_starts(const Graph& g, unsigned k,
                                const McOptions& mc, ThreadPool* pool) {
  return run_monte_carlo(
      [&g, k](std::uint64_t, Rng& rng) {
        const auto starts = sample_uniform_starts(g, k, rng);
        const CoverSample s = sample_multi_cover_time(g, starts, rng);
        return TrialOutcome{static_cast<double>(s.steps), !s.covered};
      },
      mc, pool);
}

ExperimentResult run_start_placement(const ExperimentParams& params,
                                     ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_start_placement");
  const std::uint64_t seed = params.seed;
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);
  const auto k = static_cast<unsigned>(resolve_k(preset, params));

  const McOptions mc = preset_mc(target_trials);
  const std::vector<GraphFamily> families = {
      GraphFamily::kMargulis, GraphFamily::kGrid2d, GraphFamily::kCycle,
      GraphFamily::kBarbell};

  ResultTable table("placement", "k = " + std::to_string(k) +
                                     " walks: cover time by start placement");
  table.add_column("graph", /*left=*/true)
      .add_column("same-vertex")
      .add_column("stationary")
      .add_column("uniform")
      .add_column("spread (k-center)")
      .add_column("same/spread");

  for (GraphFamily family : families) {
    const FamilyInstance instance =
        make_family_instance(family, target_n, seed);
    const Graph& g = instance.graph;

    McOptions o1 = mc;
    o1.seed = mix64(seed ^ 0xaaa1ULL);
    const McResult same =
        estimate_k_cover_time(g, instance.start, k, o1, CoverOptions{}, &pool);

    McOptions o2 = mc;
    o2.seed = mix64(seed ^ 0xaaa2ULL);
    const McResult stationary =
        estimate_stationary_start_cover(g, k, o2, CoverOptions{}, &pool);

    McOptions o3 = mc;
    o3.seed = mix64(seed ^ 0xaaa3ULL);
    const McResult uniform = measure_uniform_starts(g, k, o3, &pool);

    McOptions o4 = mc;
    o4.seed = mix64(seed ^ 0xaaa4ULL);
    const std::vector<Vertex> spread = spread_starts(g, k, instance.start);
    const McResult spread_result =
        estimate_multi_cover_time(g, spread, o4, CoverOptions{}, &pool);

    table.begin_row();
    table.text(instance.name);
    table.mean_pm(same);
    table.mean_pm(stationary);
    table.mean_pm(uniform);
    table.mean_pm(spread_result);
    table.real(same.ci.mean / spread_result.ci.mean, 3);
  }

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  push_param(result, "k", static_cast<std::uint64_t>(k));
  result.tables.push_back(std::move(table));
  result.notes = {
      "Expected: placement is nearly irrelevant on the expander (walks "
      "disperse within t_mix)",
      "and worth ~5x on the cycle. On the barbell the CENTER start wins "
      "outright: the",
      "tokens split into both bells and the bottleneck vertex is covered at "
      "t = 0, while any",
      "dispersed placement pays the Θ(n²)/k bell-to-center hitting time "
      "(Thm 7 is a",
      "statement about v_c for good reason)."};
  return result;
}

}  // namespace

void register_start_experiments(ExperimentRegistry& registry) {
  registry.add({"fig_stationary_start",
                "k walks from the stationary distribution vs one vertex",
                "§1.1 / Lemma 19 (prior-work comparison)",
                /*default_seed=*/19,
                {}},
               run_stationary_start);
  registry.add({"fig_start_placement",
                "same-vertex vs stationary/uniform/spread k-walk starts",
                "Ablation beyond the paper (§2 setting)",
                /*default_seed=*/77,
                {ExtraParam::kK}},
               run_start_placement);
}

}  // namespace manywalks::cli
