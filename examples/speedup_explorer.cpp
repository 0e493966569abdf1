// Research CLI: full speed-up curve with confidence intervals and theory
// columns for any family/size/k-range, plus the graph profile (h_max,
// mixing time, Matthews gap) the paper's theorems are phrased in.
//
//   ./speedup_explorer --family cycle --n 513 --kmax 64
//   ./speedup_explorer --family margulis --n 1024 --kmax 256 --trials 300
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiments.hpp"
#include "theory/bounds.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace manywalks;

  std::string family_str = "cycle";
  std::uint64_t n = 257;
  std::uint64_t kmax = 32;
  std::uint64_t trials = 200;
  std::uint64_t seed = 1;
  bool skip_profile = false;

  ArgParser parser("speedup_explorer",
                   "speed-up curves with theory reference columns");
  parser.add_option("family", &family_str, "graph family name")
      .add_option("n", &n, "target vertex count")
      .add_option("kmax", &kmax, "largest k (powers of two from 1)")
      .add_option("trials", &trials, "Monte-Carlo trials per point")
      .add_option("seed", &seed, "random seed")
      .add_flag("no-profile", &skip_profile,
                "skip the h_max / mixing-time profile (faster)");
  if (!parser.parse(argc, argv)) return 1;

  const auto family = family_from_name(family_str);
  if (!family) {
    std::cerr << "unknown family '" << family_str << "'; try one of:";
    for (GraphFamily f : all_families()) std::cerr << ' ' << family_name(f);
    std::cerr << '\n';
    return 1;
  }

  const FamilyInstance instance = make_family_instance(*family, n, seed);
  std::cout << describe(instance.graph) << "  [" << instance.name
            << "], start " << instance.start << "\n";

  ExperimentOptions options;
  options.seed = seed;
  options.mc.min_trials = std::max<std::uint64_t>(trials / 4, 8);
  options.mc.max_trials = trials;

  if (!skip_profile) {
    ProfileOptions profile_options;
    profile_options.mc = options.mc;
    profile_options.mc.seed = mix64(seed ^ 0x9999);
    const GraphProfile profile = profile_graph(instance, profile_options);
    ResultTable ptable("profile", "Graph profile");
    ptable.add_column("quantity", /*left=*/true)
        .add_column("measured")
        .add_column("paper prediction", /*left=*/true);
    ptable.begin_row()
        .text("cover time C")
        .mean_pm(profile.cover)
        .text(instance.theory.cover_formula + std::string(" = ") +
              format_double(instance.theory.cover));
    ptable.begin_row()
        .text(profile.h_max.exact ? "h_max (exact)" : "h_max (sampled)")
        .real(profile.h_max.value)
        .text(instance.theory.hitting_formula + std::string(" = ") +
              format_double(instance.theory.h_max));
    ptable.begin_row()
        .text(profile.mixing.laziness > 0 ? "t_mix (lazy)" : "t_mix")
        .text(profile.mixing.converged
                  ? format_count(profile.mixing.time)
                  : "> " + format_count(profile.mixing.time))
        .text(instance.theory.mixing_formula);
    ptable.begin_row()
        .text("gap g = C/h_max")
        .real(profile.gap, 3)
        .text("Thm 5: linear speed-up for k ≲ g^{1-ε}");
    std::cout << '\n'
              << table_text(ptable)
              << censored_legend(count_censored_cells(ptable));
  }

  std::vector<unsigned> ks;
  for (std::uint64_t k = 1; k <= kmax; k *= 2) {
    ks.push_back(static_cast<unsigned>(k));
  }
  const SpeedupCurveResult curve = run_speedup_curve(instance, ks, options);

  // Reference column: the regime Table 1 predicts for this family.
  const bool log_regime =
      *family == GraphFamily::kCycle || *family == GraphFamily::kPath;
  const McResult& single = curve.single;
  ResultTable table(
      "speedup_curve",
      "Speed-up curve on " + curve.name + " from vertex " +
          std::to_string(curve.start) + " (C = " +
          cell_text(MeanPmCell{single.ci.mean, single.ci.half_width, 4,
                               single.censored}) +
          ")");
  table.add_column("k")
      .add_column("C^k")
      .add_column("S^k = C/C^k")
      .add_column(log_regime ? "ln k (paper: Θ(log k))"
                             : "k (paper: linear regime)")
      .add_column("S^k / ref");
  for (const SpeedupEstimate& p : curve.points) {
    const double k = static_cast<double>(p.k);
    const double reference = log_regime ? std::max(1.0, std::log(k)) : k;
    table.begin_row()
        .count(p.k)
        .mean_pm(p.multi)
        .mean_pm(p)
        .real(reference)
        .real(p.speedup / reference, 3);
  }
  std::cout << '\n'
            << table_text(table)
            << censored_legend(count_censored_cells(table)) << '\n';
  return 0;
}
