// Registration for the paper's Table 1 summary (experiment T1): for each
// of the seven graph families, the measured cover time, maximum hitting
// time, mixing time, the Matthews gap, and the speed-up S^k at small k,
// side by side with the paper's predicted orders.
#include <cmath>
#include <iostream>
#include <sstream>
#include <vector>

#include "cli/experiments_common.hpp"
#include "core/experiments.hpp"

namespace manywalks::cli {

namespace {

ExperimentResult run_table1(const ExperimentParams& params, ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("table1_summary");
  const std::uint64_t seed = params.seed;
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);

  ExperimentOptions options = preset_experiment_options(seed, target_trials);
  options.mc.target_rel_half_width = 0.04;
  options.hmax_exact_limit = params.full ? 2048 : 1200;
  // At n ≈ 4096 the cycle's t_mix = Θ(n²) ≈ 17M steps, each O(arcs) — the
  // exact measurement would dominate the whole table. Cap it and let the
  // row report "> cap", which is the Θ(n²) prediction's signature anyway.
  options.mixing_cap = params.full ? 2'000'000 : 1'000'000;

  // Speed-up columns: k = 2 and k = floor(ln n) (the Thm 4 regime).
  const auto log_n = static_cast<unsigned>(std::max(
      3.0, std::floor(std::log(static_cast<double>(target_n)))));
  const std::vector<unsigned> ks = {2, log_n};

  std::vector<FamilyInstance> instances;
  for (GraphFamily family : table1_families()) {
    instances.push_back(make_family_instance(family, target_n, seed));
    std::cerr << "[table1] measuring " << instances.back().name << "...\n";
  }
  const std::vector<Table1Row> rows =
      run_table1_rows(instances, ks, options, pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  result.tables.push_back(make_table1_result_table(rows, ks));
  result.notes = {
      "h_max marked * is a sampled extremal-pair estimate (exact solve above "
      "the size cap).",
      "Mixing time uses the paper's definition (L1 < 1/e); (lazy) marks "
      "bipartite families",
      "measured on the 1/2-lazy chain."};
  return result;
}

}  // namespace

void register_table1_experiment(ExperimentRegistry& registry) {
  registry.add({"table1_summary",
                "reproduce Table 1 of the paper across the seven families",
                "Table 1 (§1, results summary)",
                /*default_seed=*/1,
                {}},
               run_table1);
}

}  // namespace manywalks::cli
