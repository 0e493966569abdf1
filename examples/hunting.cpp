// Hunting on a graph (the opening scenario of the paper's introduction):
// k hunters start from a common base camp and random-walk until one of them
// steps onto the prey's vertex. The prey either hides at a fixed vertex or
// itself performs a random walk.
//
// The capture time is exactly the k-walk hitting time; the example shows
// how the paper's cover/hitting machinery answers a pursuit question, and
// how much k parallel hunters help on different terrains.
//
//   ./hunting [--n 2048] [--trials 300] [--moving]
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/families.hpp"
#include "mc/monte_carlo.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "walk/hitting.hpp"

namespace {

using namespace manywalks;

/// Rounds until some hunter occupies the prey's vertex. A hiding prey
/// makes this the k-walk hitting time. A moving prey performs its own
/// simple random walk (simultaneous moves; a capture is checked after each
/// full round, and a hunter crossing the prey's old position does not
/// count — classic pursuit convention).
HitSample capture_time(const Graph& g, Vertex camp, unsigned k, Vertex prey,
                       bool prey_moves, Rng& rng, std::uint64_t cap) {
  std::vector<Vertex> hunters(k, camp);
  if (!prey_moves) {
    HitOptions hit;
    hit.step_cap = cap;
    return sample_multi_hitting_time(g, hunters, prey, rng, hit);
  }
  const auto step = [&g, &rng](Vertex v) {
    return g.neighbor(v, rng.uniform_below(g.degree(v)));
  };
  for (std::uint64_t t = 1; t <= cap; ++t) {
    prey = step(prey);
    bool caught = false;
    for (Vertex& h : hunters) {
      h = step(h);
      caught = caught || h == prey;
    }
    if (caught) return HitSample{t, true};
  }
  return HitSample{cap, false};
}

McResult measure(const Graph& g, Vertex camp, unsigned k, bool prey_moves,
                 std::uint64_t trials, std::uint64_t seed) {
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  const Vertex n = g.num_vertices();
  return run_monte_carlo(
      [&g, camp, k, prey_moves, n](std::uint64_t, Rng& rng) {
        Vertex prey = rng.uniform_below(n);
        while (prey == camp) prey = rng.uniform_below(n);
        const std::uint64_t cap = 200ULL * n;
        const HitSample capture =
            capture_time(g, camp, k, prey, prey_moves, rng, cap);
        return TrialOutcome{static_cast<double>(capture.steps), !capture.hit};
      },
      mc);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 2048;
  std::uint64_t trials = 300;
  std::uint64_t seed = 99;
  bool moving = false;

  ArgParser parser("hunting", "k hunters pursuing prey by random walks");
  parser.add_option("n", &n, "terrain size (vertices)")
      .add_option("trials", &trials, "hunts per configuration")
      .add_option("seed", &seed, "random seed")
      .add_flag("moving", &moving, "prey random-walks instead of hiding");
  if (!parser.parse(argc, argv)) return 1;

  const std::vector<GraphFamily> terrains = {
      GraphFamily::kGrid2d, GraphFamily::kMargulis, GraphFamily::kCycle};
  const std::vector<unsigned> ks = {1, 4, 16};

  std::cout << "Prey: " << (moving ? "random-walking" : "hiding (stationary)")
            << ", uniformly placed; hunters start from one base camp.\n\n";

  TextTable table("Expected capture time (rounds)");
  table.add_column("terrain", TextTable::Align::kLeft);
  for (unsigned k : ks) {
    table.add_column("k=" + std::to_string(k));
  }
  table.add_column("S^16 speed-up");

  for (GraphFamily family : terrains) {
    const FamilyInstance terrain = make_family_instance(family, n, seed);
    table.begin_row().cell(terrain.name);
    double base = 0.0;
    double last = 0.0;
    for (unsigned k : ks) {
      const McResult r = measure(terrain.graph, terrain.start, k, moving,
                                 trials, mix64(seed ^ (1234 + k)));
      if (k == 1) base = r.ci.mean;
      last = r.ci.mean;
      table.cell(format_mean_pm(r.ci.mean, r.ci.half_width));
    }
    table.cell(format_double(base / last, 3));
  }
  std::cout << table
            << "\nCapture = k-walk hitting time: many hunters help "
               "dramatically on mixing\nterrains, barely on the ring "
               "(hunters travel in a pack — §1 of the paper).\n";
  return 0;
}
