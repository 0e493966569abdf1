// Quickstart: build a graph, measure the cover time of one walk and of k
// parallel walks, and print the speed-up — the paper's central quantity.
//
//   ./quickstart [--n 1024] [--k 8] [--family grid2d] [--trials 200]
#include <cstdint>
#include <iostream>

#include "core/experiments.hpp"
#include "core/families.hpp"
#include "mc/estimators.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace manywalks;

  std::uint64_t n = 1024;
  unsigned k = 8;
  std::string family_str = "grid2d";
  std::uint64_t trials = 200;
  std::uint64_t seed = 42;

  ArgParser parser("quickstart",
                   "measure the k-walk cover-time speed-up on one graph");
  parser.add_option("n", &n, "target number of vertices")
      .add_option("k", &k, "number of parallel walks")
      .add_option("family", &family_str,
                  "graph family (cycle, grid2d, hypercube, complete, "
                  "margulis, barbell, ...)")
      .add_option("trials", &trials, "Monte-Carlo trials per estimate")
      .add_option("seed", &seed, "random seed");
  if (!parser.parse(argc, argv)) return 1;

  const auto family = family_from_name(family_str);
  if (!family) {
    std::cerr << "unknown family '" << family_str << "'\n";
    return 1;
  }

  // 1. Build the graph (canonical start vertex included).
  const FamilyInstance instance = make_family_instance(*family, n, seed);
  std::cout << "Graph: " << describe(instance.graph) << " ("
            << instance.name << "), start vertex " << instance.start
            << "\n\n";

  // 2. Estimate C (one walk) and C^k (k walks from the same vertex).
  McOptions mc;
  mc.min_trials = trials / 4;
  mc.max_trials = trials;
  mc.seed = seed;
  const SpeedupEstimate s =
      estimate_speedup(instance.graph, instance.start, k, mc);

  // 3. Report.
  ResultTable table("speedup",
                    "Cover-time speed-up (paper: 'Many random walks are "
                    "faster than one')");
  table.add_column("quantity", /*left=*/true)
      .add_column("value")
      .add_column("trials");
  table.begin_row()
      .text("C  (1 walk)")
      .mean_pm(s.single)
      .count(s.single.ci.count);
  table.begin_row()
      .text("C^k (" + std::to_string(k) + " walks)")
      .mean_pm(s.multi)
      .count(s.multi.ci.count);
  table.begin_row().text("speed-up S^k").mean_pm(s).blank();
  table.begin_row()
      .text("paper regime")
      .text(instance.theory.speedup_regime)
      .blank();
  std::cout << table_text(table)
            << censored_legend(count_censored_cells(table)) << '\n';
  return 0;
}
