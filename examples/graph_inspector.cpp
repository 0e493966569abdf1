// Graph inspector: profile ANY graph (from an edge-list file or a built-in
// family) through the lens of the paper — structure, spectra, mixing,
// hitting/cover times, and the measured speed-up regime.
//
//   ./graph_inspector --family barbell --n 257
//   ./graph_inspector --file mygraph.edges --save roundtrip.edges
//
// Edge-list format (see graph/io.hpp):
//   # manywalks-graph 1
//   <num_vertices>
//   <u> <v>        (one line per edge)
#include <fstream>
#include <iostream>
#include <vector>

#include "manywalks.hpp"

int main(int argc, char** argv) {
  using namespace manywalks;

  std::string file;
  std::string family_str;
  std::string save;
  std::uint64_t n = 256;
  std::uint64_t trials = 150;
  std::uint64_t seed = 12;

  ArgParser parser("graph_inspector",
                   "profile a graph through the paper's quantities");
  parser.add_option("file", &file, "edge-list file to inspect")
      .add_option("family", &family_str, "built-in family (alternative to --file)")
      .add_option("n", &n, "target size for --family")
      .add_option("save", &save, "write the graph back to this edge-list file")
      .add_option("trials", &trials, "Monte-Carlo trials per estimate")
      .add_option("seed", &seed, "random seed");
  if (!parser.parse(argc, argv)) return 1;

  Graph graph;
  Vertex start = 0;
  std::string name;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open '" << file << "'\n";
      return 1;
    }
    graph = read_edge_list(in);
    name = file;
  } else {
    const auto family =
        family_from_name(family_str.empty() ? "grid2d" : family_str);
    if (!family) {
      std::cerr << "unknown family '" << family_str << "'\n";
      return 1;
    }
    FamilyInstance instance = make_family_instance(*family, n, seed);
    graph = std::move(instance.graph);
    start = instance.start;
    name = instance.name;
  }

  if (graph.num_vertices() == 0 || graph.num_arcs() == 0) {
    std::cerr << "graph has no edges; nothing to walk on\n";
    return 1;
  }
  if (!is_connected(graph)) {
    const auto sub = extract_largest_component(graph);
    std::cerr << "note: graph disconnected; profiling the largest component ("
              << sub.graph.num_vertices() << " of " << graph.num_vertices()
              << " vertices)\n";
    graph = sub.graph;
    start = 0;
  }

  // --- structure ---------------------------------------------------------
  ResultTable structure("structure", "Structure — " + name);
  structure.add_column("property", /*left=*/true)
      .add_column("value", /*left=*/true);
  const DegreeStats degrees = degree_stats(graph);
  structure.begin_row().text("vertices / edges").text(
      format_count(graph.num_vertices()) + " / " + format_count(graph.num_edges()));
  structure.begin_row().text("degree min/mean/max").text(
      format_count(degrees.min) + " / " + format_double(degrees.mean, 3) +
      " / " + format_count(degrees.max));
  structure.begin_row().text("self loops").count(graph.num_loops());
  structure.begin_row().text("bipartite").text(is_bipartite(graph) ? "yes" : "no");
  {
    Rng rng(mix64(seed));
    structure.begin_row().text("diameter (lower bound)").count(
        diameter_lower_bound(graph, rng));
  }
  const SpectralResult spectrum = second_eigenvalue(graph);
  structure.begin_row().text("|λ₂| of walk matrix").text(
      format_double(spectrum.lambda_norm, 4) +
      (spectrum.converged ? "" : " (not converged)"));
  structure.begin_row().text("spectral gap").real(spectrum.spectral_gap);
  std::cout << table_text(structure) << '\n';

  // --- walk profile ------------------------------------------------------
  McOptions mc;
  mc.min_trials = std::max<std::uint64_t>(trials / 4, 8);
  mc.max_trials = trials;
  mc.seed = mix64(seed ^ 0x1);

  FamilyInstance pseudo;
  pseudo.graph = std::move(graph);
  pseudo.start = start;
  pseudo.needs_lazy_mixing = is_bipartite(pseudo.graph);
  ProfileOptions profile_options;
  profile_options.mc = mc;
  const GraphProfile profile = profile_graph(pseudo, profile_options);

  ResultTable walk_table("walk", "Random-walk profile (start vertex " +
                                     format_count(start) + ")");
  walk_table.add_column("quantity", /*left=*/true)
      .add_column("value", /*left=*/true);
  walk_table.begin_row().text("cover time C").mean_pm(profile.cover);
  walk_table.begin_row()
      .text(profile.h_max.exact ? "h_max (exact)" : "h_max (sampled)")
      .real(profile.h_max.value);
  walk_table.begin_row()
      .text(profile.mixing.laziness > 0 ? "t_mix (lazy)" : "t_mix")
      .text(profile.mixing.converged ? format_count(profile.mixing.time)
                                     : "> " + format_count(profile.mixing.time));
  walk_table.begin_row().text("Matthews gap C/h_max").real(profile.gap, 3);
  walk_table.begin_row().text("Matthews upper h_max·H_{n-1}").real(
      matthews_upper_bound(profile.h_max.value, pseudo.graph.num_vertices()));
  std::cout << '\n'
            << table_text(walk_table)
            << censored_legend(count_censored_cells(walk_table)) << '\n';

  // --- speed-up regime -----------------------------------------------------
  const std::vector<unsigned> ks = {2, 4, 8, 16, 32};
  const auto curve =
      estimate_speedup_curve(pseudo.graph, start, ks, mc);
  const RegimeFit fit = classify_speedup_regime(curve);
  ResultTable regime_table("regime", "Measured speed-up curve");
  regime_table.add_column("k").add_column("S^k");
  for (const SpeedupEstimate& p : curve) {
    regime_table.begin_row().count(p.k).mean_pm(p);
  }
  std::cout << '\n'
            << table_text(regime_table)
            << censored_legend(count_censored_cells(regime_table))
            << "\nRegime: S^k ≈ "
            << format_double(fit.multiplier, 3) << " · k^"
            << format_double(fit.exponent, 3) << "  → " << regime_name(fit.regime)
            << " (R² = " << format_double(fit.r_squared, 3) << ")\n";

  if (!save.empty()) {
    std::ofstream out(save);
    if (!out) {
      std::cerr << "cannot write '" << save << "'\n";
      return 1;
    }
    write_edge_list(out, pseudo.graph);
    std::cerr << "# wrote " << save << '\n';
  }
  return 0;
}
