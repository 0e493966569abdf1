// P1 — google-benchmark suite for the simulation engine itself: raw walk
// stepping throughput per family, the seed per-call cover path vs the
// batched WalkEngine hot path (steps/second), k-walk round cost,
// single-walk hitting samples, and Monte-Carlo thread scaling. These
// numbers justify the experiment harness's feasible scales (steps/second
// on a laptop).
//
// The binary has its own main: before running benchmarks it
//   1. verifies that the BENCH_4 baseline (SharedStreamWalk, the scalar
//      shared-stream round loop) samples the SAME cover times, trial by
//      trial and draw by draw, as the seed per-call path under
//      make_trial_rng streams — so the baseline is the real walk;
//   2. measures the lane engine against that baseline in steps/s per
//      family x k and writes the machine-readable BENCH_4.json perf
//      artifact (--bench4_out=PATH, schema "manywalks-bench4-v1",
//      documented in docs/ARCHITECTURE.md); with --lane_guard it exits
//      nonzero if the lane engine regresses below the baseline on any
//      family (the CI perf-smoke anti-regression gate);
//   3. measures the observability layer's cost (BENCH_obs.json, schema
//      "manywalks-obs-v1"): lane steps/s with a MetricsRegistry installed
//      vs observability off, counting contract checked exactly; with
//      --obs_guard it exits nonzero if metrics-on drops below 97% of
//      metrics-off steps/s on every k of any family.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/families.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"
#include "reference_walks.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"
#include "walk/hitting.hpp"

namespace {

using namespace manywalks;

// ---------------------------------------------------------------------------
// Reference: the seed's per-call cover loop (pre-WalkEngine), the baseline
// side of the steps/second comparison, with a std::vector<bool> visited set.
// ---------------------------------------------------------------------------
CoverSample seed_path_cover(const Graph& g, std::span<const Vertex> starts,
                            Vertex target, Rng& rng,
                            const CoverOptions& options = {}) {
  thread_local std::vector<bool> visited;
  visited.assign(g.num_vertices(), false);
  Vertex num_visited = 0;
  const auto visit = [&](Vertex v) {
    if (!visited[v]) {
      visited[v] = true;
      ++num_visited;
    }
  };

  std::vector<Vertex> tokens(starts.begin(), starts.end());
  for (Vertex s : tokens) visit(s);
  CoverSample sample;
  if (num_visited >= target) {
    sample.covered = true;
    return sample;
  }

  const bool lazy = options.laziness > 0.0;
  std::uint64_t t = 0;
  while (t < options.step_cap) {
    ++t;
    for (Vertex& token : tokens) {
      token = lazy ? step_walk_lazy(g, token, rng, options.laziness)
                   : step_walk(g, token, rng);
      visit(token);
    }
    if (num_visited >= target) {
      sample.steps = t;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  sample.covered = false;
  return sample;
}

// ---------------------------------------------------------------------------
// The BENCH_4 baseline: the scalar shared-stream round loop over a
// substrate. All k tokens consume ONE caller stream token by token in
// step_walk order — one uniform_below(degree) per step — committing into
// a local word bitmap, with the substrate, token array and visited count
// held in locals across the loop. The stream dependency serializes the
// round: token i+1's draw waits on token i's rng.next(), which is what the
// lane engine's per-token streams remove.
// ---------------------------------------------------------------------------
template <class S>
class SharedStreamWalk {
 public:
  explicit SharedStreamWalk(const S& substrate)
      : substrate_(substrate),
        words_((static_cast<std::size_t>(substrate.num_vertices()) + 63) / 64) {}

  void reset(std::span<const Vertex> starts) {
    std::fill(words_.begin(), words_.end(), 0);
    visited_ = 0;
    tokens_.assign(starts.begin(), starts.end());
    for (Vertex s : tokens_) mark(s, words_.data(), visited_);
  }

  /// Rounds until `target` distinct vertices are visited (never, for a
  /// target above n) or `cap` rounds have run.
  CoverSample run(Vertex target, std::uint64_t cap, Rng& rng) {
    CoverSample sample;
    if (visited_ >= target) {
      sample.covered = true;
      return sample;
    }
    const S substrate = substrate_;
    Vertex* const toks = tokens_.data();
    std::uint64_t* const words = words_.data();
    const std::size_t k = tokens_.size();
    Vertex visited = visited_;
    sample.steps = cap;
    std::uint64_t t = 0;
    while (t < cap) {
      ++t;
      for (std::size_t i = 0; i < k; ++i) {
        const Vertex u = toks[i];
        const Vertex v =
            substrate.neighbor(u, rng.uniform_below(substrate.degree(u)));
        toks[i] = v;
        mark(v, words, visited);
      }
      if (visited >= target) {
        sample.steps = t;
        sample.covered = true;
        break;
      }
    }
    visited_ = visited;
    return sample;
  }

  /// `rounds` rounds with no coverage stop (the BENCH_4 timing loop).
  void run_for_steps(std::uint64_t rounds, Rng& rng) {
    run(substrate_.num_vertices() + 1, rounds, rng);
  }

 private:
  static void mark(Vertex v, std::uint64_t* words, Vertex& visited) {
    std::uint64_t& word = words[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++visited;
    }
  }

  S substrate_;
  std::vector<std::uint64_t> words_;
  std::vector<Vertex> tokens_;
  Vertex visited_ = 0;
};

void BM_StepThroughput(benchmark::State& state, const Graph& g) {
  Rng rng(1);
  Vertex v = 0;
  for (auto _ : state) {
    v = step_walk(g, v, rng);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

const Graph& cycle_graph() {
  static const Graph g = make_cycle(1 << 16);
  return g;
}
const Graph& grid_graph() {
  static const Graph g = make_grid_2d(255);
  return g;
}
const Graph& hypercube_graph() {
  static const Graph g = make_hypercube(16);
  return g;
}
const Graph& margulis_graph() {
  static const Graph g = make_margulis_expander(255);
  return g;
}
const Graph& complete_graph() {
  static const Graph g = make_complete(2048);
  return g;
}

void BM_StepCycle(benchmark::State& state) { BM_StepThroughput(state, cycle_graph()); }
void BM_StepGrid2d(benchmark::State& state) { BM_StepThroughput(state, grid_graph()); }
void BM_StepHypercube(benchmark::State& state) { BM_StepThroughput(state, hypercube_graph()); }
void BM_StepMargulis(benchmark::State& state) { BM_StepThroughput(state, margulis_graph()); }
void BM_StepComplete(benchmark::State& state) { BM_StepThroughput(state, complete_graph()); }

BENCHMARK(BM_StepCycle);
BENCHMARK(BM_StepGrid2d);
BENCHMARK(BM_StepHypercube);
BENCHMARK(BM_StepMargulis);
BENCHMARK(BM_StepComplete);

// ---------------------------------------------------------------------------
// Seed per-call path vs batched WalkEngine, k-token partial-cover trials on
// the three headline instances. items/second == token-steps/second, so the
// two sides are directly comparable.
// ---------------------------------------------------------------------------
constexpr unsigned kTokens = 16;

/// Smaller cycle than the stepping-throughput instance: cycle cover is
/// Theta(n^2), and 2^16 vertices would leave the benchmark a single
/// multi-second iteration.
const Graph& cover_cycle_graph() {
  static const Graph g = make_cycle(1 << 13);
  return g;
}

void BM_CoverPath(benchmark::State& state, const Graph& g, bool batched) {
  const std::vector<Vertex> starts(kTokens, 0);
  // 90% coverage keeps per-trial work bounded (the last few vertices
  // dominate full cover times) while still exercising the real workload.
  const auto target =
      static_cast<Vertex>(static_cast<double>(g.num_vertices()) * 0.9);
  Rng rng(7);
  WalkEngine engine(g);
  std::uint64_t token_steps = 0;
  for (auto _ : state) {
    CoverSample sample;
    if (batched) {
      engine.reset(starts);
      sample = engine.run_until_visited(target, rng);
    } else {
      sample = seed_path_cover(g, starts, target, rng);
    }
    benchmark::DoNotOptimize(sample.steps);
    token_steps += sample.steps * kTokens;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(token_steps));
}

void BM_SeedPathCycle(benchmark::State& state) { BM_CoverPath(state, cover_cycle_graph(), false); }
void BM_EngineCycle(benchmark::State& state) { BM_CoverPath(state, cover_cycle_graph(), true); }
void BM_SeedPathGrid2d(benchmark::State& state) { BM_CoverPath(state, grid_graph(), false); }
void BM_EngineGrid2d(benchmark::State& state) { BM_CoverPath(state, grid_graph(), true); }
void BM_SeedPathExpander(benchmark::State& state) { BM_CoverPath(state, margulis_graph(), false); }
void BM_EngineExpander(benchmark::State& state) { BM_CoverPath(state, margulis_graph(), true); }

BENCHMARK(BM_SeedPathCycle);
BENCHMARK(BM_EngineCycle);
BENCHMARK(BM_SeedPathGrid2d);
BENCHMARK(BM_EngineGrid2d);
BENCHMARK(BM_SeedPathExpander);
BENCHMARK(BM_EngineExpander);

/// Cost of one k-walk round (k token steps + visit tracking) vs k.
void BM_KWalkRound(benchmark::State& state) {
  const Graph& g = grid_graph();
  const auto k = static_cast<unsigned>(state.range(0));
  Rng rng(2);
  CoverOptions options;
  options.step_cap = 64;  // fixed number of rounds per sample
  for (auto _ : state) {
    const auto sample = sample_k_cover_time(g, 0, k, rng, options);
    benchmark::DoNotOptimize(sample.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * k);
}
BENCHMARK(BM_KWalkRound)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// Full cover-time samples on mid-size instances.
void BM_CoverSampleGrid(benchmark::State& state) {
  const Graph g = make_grid_2d(63);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_cover_time(g, 0, rng).steps);
  }
}
BENCHMARK(BM_CoverSampleGrid);

void BM_CoverSampleCycle(benchmark::State& state) {
  const Graph g = make_cycle(1024);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_cover_time(g, 0, rng).steps);
  }
}
BENCHMARK(BM_CoverSampleCycle);

/// Single-walk hitting-time samples, the path of estimate_hitting_time and
/// of table1's sampled h_max*: a regular CSR graph (stride round), an
/// irregular one (staged round), and a random graph whose short hitting
/// times expose the per-sample set-up. items/second == walk steps/second.
void BM_HittingSample(benchmark::State& state, const Graph& g, Vertex from,
                      Vertex to) {
  Rng rng(5);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const HitSample sample = sample_hitting_time(g, from, to, rng);
    benchmark::DoNotOptimize(sample.steps);
    steps += sample.steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}

constexpr Vertex kHitN = 4096;

void BM_HittingSampleCycle(benchmark::State& state) {
  static const Graph g = make_cycle(kHitN);
  BM_HittingSample(state, g, 0, kHitN / 2);
}
void BM_HittingSampleLollipop(benchmark::State& state) {
  static const Graph g = make_lollipop(kHitN);
  BM_HittingSample(state, g, kHitN - 1, 0);  // path end into the clique
}
void BM_HittingSampleErdosRenyi(benchmark::State& state) {
  static const Graph g = [] {
    Rng rng(7);
    return make_erdos_renyi_connected(kHitN, 12.0 / kHitN, rng);
  }();
  BM_HittingSample(state, g, 0, 1);
}

BENCHMARK(BM_HittingSampleCycle);
BENCHMARK(BM_HittingSampleLollipop);
BENCHMARK(BM_HittingSampleErdosRenyi);

/// Monte-Carlo harness thread scaling: same trial budget, varying workers.
void BM_McThreadScaling(benchmark::State& state) {
  const Graph g = make_grid_2d(31);
  const auto threads = static_cast<unsigned>(state.range(0));
  McOptions mc;
  mc.min_trials = 64;
  mc.max_trials = 64;
  mc.threads = threads;
  for (auto _ : state) {
    const auto result = estimate_cover_time(g, 0, mc);
    benchmark::DoNotOptimize(result.ci.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_McThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Pre-benchmark check: the BENCH_4 baseline must reproduce the seed
// per-call path step for step and draw for draw under the deterministic
// make_trial_rng(seed, trial) streams, so the lane gate's denominator is
// proven to be the real walk.
// ---------------------------------------------------------------------------
bool verify_identical_samples() {
  struct Instance {
    const char* name;
    const Graph& g;
  };
  const Graph cycle = make_cycle(256);
  const Graph grid = make_grid_2d(16);
  const Instance instances[] = {
      {"cycle", cycle},
      {"grid2d", grid},
      {"expander", margulis_graph()},
  };
  constexpr std::uint64_t kSeed = 0xbe7c4ULL;
  constexpr std::uint64_t kTrials = 32;
  bool ok = true;
  for (const auto& [name, g] : instances) {
    for (unsigned k : {1u, 8u}) {
      const std::vector<Vertex> starts(k, 0);
      SharedStreamWalk<CsrSubstrate> baseline{CsrSubstrate(g)};
      for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
        Rng seed_rng = make_trial_rng(kSeed, trial);
        Rng baseline_rng = make_trial_rng(kSeed, trial);
        const CoverSample a =
            seed_path_cover(g, starts, g.num_vertices(), seed_rng);
        baseline.reset(starts);
        const CoverSample b = baseline.run(
            g.num_vertices(), std::numeric_limits<std::uint64_t>::max(),
            baseline_rng);
        if (a.steps != b.steps || a.covered != b.covered ||
            seed_rng.state() != baseline_rng.state()) {
          std::fprintf(stderr,
                       "MISMATCH %s k=%u trial=%llu: seed-path %llu vs "
                       "shared-stream baseline %llu\n",
                       name, k, static_cast<unsigned long long>(trial),
                       static_cast<unsigned long long>(a.steps),
                       static_cast<unsigned long long>(b.steps));
          ok = false;
        }
      }
    }
  }
  if (ok) {
    std::printf(
        "verified: seed-path and shared-stream baseline cover-time samples "
        "identical "
        "(3 instances x k in {1,8} x %llu trials)\n",
        static_cast<unsigned long long>(kTrials));
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Paired steps/second comparison: alternates seed-path and engine trials so
// machine-load drift hits both sides equally, and feeds both sides the same
// per-trial RNG streams (the engine derives its lanes from them, so the two
// sides sample the same cover-time distribution, not the same walks).
// ---------------------------------------------------------------------------
void report_paired_throughput() {
  struct Instance {
    const char* name;
    const Graph& g;
  };
  const Instance instances[] = {
      {"cycle", cover_cycle_graph()},
      {"grid2d", grid_graph()},
      {"expander", margulis_graph()},
  };
  constexpr std::uint64_t kSeed = 0x9a17edULL;
  constexpr std::uint64_t kTrials = 24;

  std::printf("\npaired cover-trial throughput, k=%u tokens, 90%% coverage "
              "(%llu alternating trials per path):\n",
              kTokens, static_cast<unsigned long long>(kTrials));
  std::printf("%-10s %18s %18s %8s\n", "instance", "seed-path steps/s",
              "engine steps/s", "ratio");
  for (const auto& [name, g] : instances) {
    const std::vector<Vertex> starts(kTokens, 0);
    const auto target =
        static_cast<Vertex>(static_cast<double>(g.num_vertices()) * 0.9);
    WalkEngine engine(g);
    // Warm both paths (page in the scratch arrays) outside the timing.
    {
      Rng warm(kSeed);
      seed_path_cover(g, starts, target, warm);
      Rng warm2(kSeed);
      engine.reset(starts);
      engine.run_until_visited(target, warm2);
    }
    std::uint64_t seed_steps = 0, engine_steps = 0;
    double seed_ns = 0.0, engine_ns = 0.0;
    using clock = std::chrono::steady_clock;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      Rng a = make_trial_rng(kSeed, trial);
      const auto t0 = clock::now();
      const CoverSample sa = seed_path_cover(g, starts, target, a);
      const auto t1 = clock::now();
      Rng b = make_trial_rng(kSeed, trial);
      engine.reset(starts);
      const CoverSample sb = engine.run_until_visited(target, b);
      const auto t2 = clock::now();
      seed_steps += sa.steps * kTokens;
      engine_steps += sb.steps * kTokens;
      seed_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      engine_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    }
    const double seed_rate = static_cast<double>(seed_steps) / seed_ns * 1e9;
    const double engine_rate =
        static_cast<double>(engine_steps) / engine_ns * 1e9;
    std::printf("%-10s %17.1fM %17.1fM %7.2fx\n", name, seed_rate / 1e6,
                engine_rate / 1e6, engine_rate / seed_rate);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// BENCH_4: lane engine vs the SharedStreamWalk baseline, steps/s per
// family x k, alternating interleaved reps so machine-load drift hits both
// sides equally. Emitted as the machine-readable BENCH_4.json artifact
// ("manywalks-bench4-v1"; the baseline keeps its historical "legacy" field
// names); the optional guard is the CI anti-regression gate for the lane
// kernel.
// ---------------------------------------------------------------------------

struct Bench4Row {
  std::string family;
  std::string substrate;  // "csr" or "implicit"
  std::uint64_t n = 0;
  unsigned k = 0;
  double legacy_steps_per_s = 0.0;
  double lane_steps_per_s = 0.0;
  double ratio = 0.0;
};

/// One timed run_for_steps burst of the engine or the baseline; returns
/// seconds.
template <class Walk>
double timed_rounds(Walk& walk, std::span<const Vertex> starts,
                    std::uint64_t rounds, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  walk.reset(starts);
  Rng rng(seed);
  const auto t0 = clock::now();
  walk.run_for_steps(rounds, rng);
  const auto t1 = clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Measures the engine and the baseline over the same substrate with kReps
/// alternating bursts of `rounds` rounds.
template <class S>
Bench4Row measure_lane_vs_legacy(const char* family, const char* substrate,
                                 std::uint64_t n, WalkEngineT<S>& engine,
                                 unsigned k, std::uint64_t steps_budget) {
  SharedStreamWalk<S> legacy(engine.substrate());
  const std::vector<Vertex> starts(k, 0);
  const std::uint64_t rounds = std::max<std::uint64_t>(steps_budget / k, 64);
  constexpr int kReps = 4;
  // Warm-up bursts page in the CSR/tracker scratch and size the token and
  // lane vectors. (Each timed rep still pays its own reset() + lane
  // derivation — that IS part of the per-trial workload; at <= 256 lanes
  // vs millions of steps it is noise either way.)
  timed_rounds(legacy, starts, std::max<std::uint64_t>(rounds / 8, 1), 1);
  timed_rounds(engine, starts, std::max<std::uint64_t>(rounds / 8, 1), 1);
  double legacy_s = 0.0;
  double lane_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    legacy_s += timed_rounds(legacy, starts, rounds,
                             100 + static_cast<std::uint64_t>(rep));
    lane_s += timed_rounds(engine, starts, rounds,
                           100 + static_cast<std::uint64_t>(rep));
  }
  const double steps =
      static_cast<double>(rounds) * k * static_cast<double>(kReps);
  Bench4Row row;
  row.family = family;
  row.substrate = substrate;
  row.n = n;
  row.k = k;
  row.legacy_steps_per_s = steps / legacy_s;
  row.lane_steps_per_s = steps / lane_s;
  row.ratio = row.lane_steps_per_s / row.legacy_steps_per_s;
  return row;
}

std::vector<Bench4Row> run_bench4() {
  std::vector<Bench4Row> rows;
  const unsigned ks[] = {1, 8, 64, 256};
  std::printf("lane engine vs shared-stream baseline token-steps/s "
              "(run_for_steps, simple walk):\n");
  std::printf("%-19s %4s %15s %15s %7s\n", "family", "k", "legacy", "lane",
              "ratio");
  auto push = [&rows](Bench4Row row) {
    std::printf("%-19s %4u %14.1fM %14.1fM %6.2fx\n", row.family.c_str(),
                row.k, row.legacy_steps_per_s / 1e6,
                row.lane_steps_per_s / 1e6, row.ratio);
    rows.push_back(std::move(row));
  };
  {
    // The acceptance instance: a 10^6-vertex 8-regular expander whose CSR
    // arrays dwarf L2 — the workload the prefetch pipeline exists for.
    const Graph g = make_margulis_expander(1024);  // n = 2^20
    WalkEngine engine(g);
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("csr-expander", "csr", g.num_vertices(),
                                  engine, k, 3'000'000));
    }
  }
  {
    const Graph g = make_cycle(1u << 20);
    WalkEngine engine(g);
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("csr-cycle", "csr", g.num_vertices(),
                                  engine, k, 6'000'000));
    }
  }
  {
    WalkEngineT<CycleSubstrate> engine{CycleSubstrate(1u << 20)};
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("implicit-cycle", "implicit", 1u << 20,
                                  engine, k, 12'000'000));
    }
  }
  {
    WalkEngineT<TorusSubstrate> engine{TorusSubstrate(1024)};
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("implicit-torus", "implicit", 1u << 20,
                                  engine, k, 12'000'000));
    }
  }
  {
    WalkEngineT<HypercubeSubstrate> engine{HypercubeSubstrate(20)};
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("implicit-hypercube", "implicit", 1u << 20,
                                  engine, k, 12'000'000));
    }
  }
  {
    WalkEngineT<CompleteSubstrate> engine{CompleteSubstrate(4096)};
    for (unsigned k : ks) {
      push(measure_lane_vs_legacy("implicit-complete", "implicit", 4096,
                                  engine, k, 12'000'000));
    }
  }
  std::printf("\n");
  return rows;
}

void write_bench4_json(const std::vector<Bench4Row>& rows,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-bench4-v1\",\n"
      << "  \"metric\": \"token-steps per second, run_for_steps, simple "
         "walk\",\n"
      << "  \"modes\": [\"shared_legacy\", \"lane\"],\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Bench4Row& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"substrate\": \""
        << r.substrate << "\", \"n\": " << r.n << ", \"k\": " << r.k
        << ", \"legacy_steps_per_s\": " << static_cast<std::uint64_t>(r.legacy_steps_per_s)
        << ", \"lane_steps_per_s\": " << static_cast<std::uint64_t>(r.lane_steps_per_s)
        << ", \"ratio\": " << r.ratio << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n\n", path.c_str(), rows.size());
}

/// CI gate on the BEST k >= 8 ratio per family (deliberately best-of-k,
/// not every-k: single rows on a noisy shared runner can dip on load
/// spikes, but a kernel regression drags every k down together): 1.0 for
/// each family, 1.5 for the headline csr-expander instance.
bool lane_guard_passes(const std::vector<Bench4Row>& rows) {
  bool ok = true;
  std::vector<std::string> families;
  for (const Bench4Row& row : rows) {
    if (std::find(families.begin(), families.end(), row.family) ==
        families.end()) {
      families.push_back(row.family);
    }
  }
  for (const std::string& family : families) {
    double best = 0.0;
    for (const Bench4Row& row : rows) {
      if (row.family == family && row.k >= 8) best = std::max(best, row.ratio);
    }
    const double floor = family == "csr-expander" ? 1.5 : 1.0;
    const bool pass = best >= floor;
    std::printf("lane_guard %-19s best k>=8 ratio %.2fx (floor %.1fx) %s\n",
                family.c_str(), best, floor, pass ? "OK" : "FAIL");
    ok = ok && pass;
  }
  std::printf("\n");
  return ok;
}

// ---------------------------------------------------------------------------
// BENCH_scale: strong scaling of ONE sharded cover run (determinism
// contract v3). The acceptance instance is the 10^6-vertex 8-regular
// expander at k = 2^12: threads=1 runs the serial lane path, threads>1 a
// ThreadPool(threads-1) worker team over 16 lane shards. The round counts
// MUST be identical across thread counts (thread-invariance is part of the
// contract, checked here on every run, guard or not); the guard addition-
// ally gates the 4-thread/1-thread steps/s ratio.
// ---------------------------------------------------------------------------

struct ScaleRow {
  unsigned threads = 0;
  unsigned lane_shards = 0;
  std::uint64_t rounds = 0;  // summed over trials; thread-invariant
  double steps_per_s = 0.0;  // token-steps per second
};

std::vector<ScaleRow> run_scale() {
  const Graph g = make_margulis_expander(1024);  // n = 2^20
  constexpr unsigned kK = 1u << 12;
  const auto target =
      static_cast<Vertex>(static_cast<double>(g.num_vertices()) * 0.9);
  const std::vector<Vertex> starts(kK, 0);
  constexpr std::uint64_t kSeed = 0x5ca1eULL;
  constexpr std::uint64_t kTrials = 6;
  WalkEngine engine(g);

  std::printf("sharded strong scaling (expander n=%u, k=%u, 90%% coverage, "
              "%llu trials):\n",
              g.num_vertices(), kK,
              static_cast<unsigned long long>(kTrials));
  std::printf("%8s %12s %10s %15s %8s\n", "threads", "lane-shards", "rounds",
              "steps/s", "vs 1t");
  std::vector<ScaleRow> rows;
  using clock = std::chrono::steady_clock;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ScaleRow row;
    row.threads = threads;
    std::unique_ptr<ThreadPool> pool;
    CoverOptions opt;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads - 1);
      row.lane_shards = 16;
      opt.lane_shards = row.lane_shards;
      opt.shard_pool = pool.get();
    }
    {
      // Warm-up trial pages in the tracker scratch and spins up the pool.
      Rng warm = make_trial_rng(kSeed, 1000);
      engine.reset(starts);
      engine.run_until_visited(target, warm, opt);
    }
    double secs = 0.0;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      Rng rng = make_trial_rng(kSeed, trial);
      engine.reset(starts);
      const auto t0 = clock::now();
      const CoverSample sample = engine.run_until_visited(target, rng, opt);
      const auto t1 = clock::now();
      secs += std::chrono::duration<double>(t1 - t0).count();
      row.rounds += sample.steps;
    }
    row.steps_per_s = static_cast<double>(row.rounds) * kK / secs;
    std::printf("%8u %12u %10llu %14.1fM %7.2fx\n", row.threads,
                row.lane_shards, static_cast<unsigned long long>(row.rounds),
                row.steps_per_s / 1e6,
                rows.empty() ? 1.0 : row.steps_per_s / rows[0].steps_per_s);
    rows.push_back(row);
  }
  std::printf("\n");
  return rows;
}

void write_scale_json(const std::vector<ScaleRow>& rows,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-scale-v1\",\n"
      << "  \"metric\": \"token-steps per second, one sharded cover run, "
         "expander n=2^20, k=4096, 90% coverage\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"threads\": " << r.threads
        << ", \"lane_shards\": " << r.lane_shards
        << ", \"rounds\": " << r.rounds
        << ", \"steps_per_s\": " << static_cast<std::uint64_t>(r.steps_per_s)
        << ", \"speedup_vs_1t\": "
        << (rows[0].steps_per_s > 0.0 ? r.steps_per_s / rows[0].steps_per_s
                                      : 0.0)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n\n", path.c_str(), rows.size());
}

/// Thread-invariance is unconditional (a divergence is a correctness bug,
/// not a perf regression); the >= 1.6x floor on the 4-thread ratio is the
/// CI strong-scaling gate.
bool scale_results_pass(const std::vector<ScaleRow>& rows, bool guard) {
  bool ok = true;
  for (const ScaleRow& row : rows) {
    if (row.rounds != rows[0].rounds) {
      std::fprintf(stderr,
                   "scale FAIL: rounds not thread-invariant (%llu rounds at "
                   "%u threads vs %llu at 1) — determinism contract v3 broken\n",
                   static_cast<unsigned long long>(row.rounds), row.threads,
                   static_cast<unsigned long long>(rows[0].rounds));
      ok = false;
    }
  }
  if (guard) {
    const double ratio = rows.back().steps_per_s / rows[0].steps_per_s;
    const bool pass = ratio >= 1.6;
    std::printf("scale_guard %u threads vs 1: %.2fx (floor 1.6x) %s\n\n",
                rows.back().threads, ratio, pass ? "OK" : "FAIL");
    ok = ok && pass;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// BENCH_obs: cost of the observability layer. Lane-engine
// run_for_steps bursts alternate between observer OFF (the null-pointer
// fast path) and observer ON with a live MetricsRegistry — the exact
// configuration `--metrics` installs. The counting contract is checked
// unconditionally (the registry must reproduce the burst's step count
// exactly); --obs_guard additionally gates the on/off steps/s ratio at
// >= 0.97, the "metrics cost <= 3% steps/s" promise in docs/ARCHITECTURE.md.
// ---------------------------------------------------------------------------

struct ObsRow {
  std::string family;
  std::string substrate;  // "csr" or "implicit"
  std::uint64_t n = 0;
  unsigned k = 0;
  double off_steps_per_s = 0.0;
  double on_steps_per_s = 0.0;
  double ratio = 0.0;  // on / off
};

/// Alternating off/on bursts, same per-rep RNG seeds on both sides so the
/// two measurements do byte-identical walk work. The observer is installed
/// only around the on-side bursts (install/uninstall happens on this
/// thread with no workers running — the documented discipline).
template <class Engine>
ObsRow measure_obs_overhead(const char* family, const char* substrate,
                            std::uint64_t n, Engine& engine, unsigned k,
                            std::uint64_t steps_budget,
                            obs::MetricsRegistry& registry,
                            std::uint64_t& expected_on_steps) {
  const std::vector<Vertex> starts(k, 0);
  const std::uint64_t rounds = std::max<std::uint64_t>(steps_budget / k, 64);
  const std::uint64_t warm_rounds = std::max<std::uint64_t>(rounds / 8, 1);
  constexpr int kReps = 4;
  obs::RunObserver on{&registry, nullptr, nullptr};
  // Warm both sides (pages scratch, seeds lanes, registers this thread's
  // counter scratch) outside the timing.
  timed_rounds(engine, starts, warm_rounds, 1);
  {
    obs::ScopedObserver scoped(&on);
    timed_rounds(engine, starts, warm_rounds, 1);
  }
  expected_on_steps += warm_rounds * k;
  double off_s = 0.0;
  double on_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(rep);
    off_s += timed_rounds(engine, starts, rounds, seed);
    obs::ScopedObserver scoped(&on);
    on_s += timed_rounds(engine, starts, rounds, seed);
  }
  expected_on_steps += rounds * k * kReps;
  const double steps =
      static_cast<double>(rounds) * k * static_cast<double>(kReps);
  ObsRow row;
  row.family = family;
  row.substrate = substrate;
  row.n = n;
  row.k = k;
  row.off_steps_per_s = steps / off_s;
  row.on_steps_per_s = steps / on_s;
  row.ratio = row.on_steps_per_s / row.off_steps_per_s;
  return row;
}

std::vector<ObsRow> run_obs(obs::MetricsRegistry& registry,
                            std::uint64_t& expected_on_steps) {
  std::vector<ObsRow> rows;
  const unsigned ks[] = {8, 64, 256};
  std::printf("observability overhead, lane token-steps/s (metrics registry "
              "installed vs off):\n");
  std::printf("%-19s %4s %15s %15s %7s\n", "family", "k", "obs off", "obs on",
              "ratio");
  auto push = [&rows](ObsRow row) {
    std::printf("%-19s %4u %14.1fM %14.1fM %6.2fx\n", row.family.c_str(),
                row.k, row.off_steps_per_s / 1e6, row.on_steps_per_s / 1e6,
                row.ratio);
    rows.push_back(std::move(row));
  };
  {
    const Graph g = make_margulis_expander(1024);  // n = 2^20
    WalkEngine engine(g);
    for (unsigned k : ks) {
      push(measure_obs_overhead("csr-expander", "csr", g.num_vertices(),
                                engine, k, 3'000'000, registry,
                                expected_on_steps));
    }
  }
  {
    WalkEngineT<CycleSubstrate> engine{CycleSubstrate(1u << 20)};
    for (unsigned k : ks) {
      push(measure_obs_overhead("implicit-cycle", "implicit", 1u << 20,
                                engine, k, 12'000'000, registry,
                                expected_on_steps));
    }
  }
  std::printf("\n");
  return rows;
}

void write_obs_json(const std::vector<ObsRow>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-obs-v1\",\n"
      << "  \"metric\": \"lane token-steps per second, run_for_steps, "
         "metrics registry installed vs observability off\",\n"
      << "  \"floor\": 0.97,\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ObsRow& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"substrate\": \""
        << r.substrate << "\", \"n\": " << r.n << ", \"k\": " << r.k
        << ", \"off_steps_per_s\": "
        << static_cast<std::uint64_t>(r.off_steps_per_s)
        << ", \"on_steps_per_s\": "
        << static_cast<std::uint64_t>(r.on_steps_per_s) << ", \"ratio\": "
        << r.ratio << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n\n", path.c_str(), rows.size());
}

/// The counting contract is unconditional: every on-side burst ran with
/// the registry installed, so after a drain the registry's walk.steps must
/// equal the steps the bursts actually executed — a miscount is a
/// correctness bug in the scratch/drain pipeline, not a perf matter. The
/// guard gates the BEST k ratio per family (same best-of-k rationale as
/// lane_guard: load spikes dent single rows, a real regression dents all).
bool obs_results_pass(const std::vector<ObsRow>& rows,
                      obs::MetricsRegistry& registry,
                      std::uint64_t expected_on_steps, bool guard) {
  bool ok = true;
  obs::drain_thread_counters(registry);
  const std::uint64_t counted = registry.value(obs::Metric::kSteps);
  if (counted != expected_on_steps) {
    std::fprintf(stderr,
                 "obs FAIL: registry counted %llu steps, bursts executed "
                 "%llu — scratch/drain pipeline miscounts\n",
                 static_cast<unsigned long long>(counted),
                 static_cast<unsigned long long>(expected_on_steps));
    ok = false;
  } else {
    std::printf("verified: metrics registry reproduced all %llu observed "
                "token-steps exactly\n",
                static_cast<unsigned long long>(counted));
  }
  if (guard) {
    std::vector<std::string> families;
    for (const ObsRow& row : rows) {
      if (std::find(families.begin(), families.end(), row.family) ==
          families.end()) {
        families.push_back(row.family);
      }
    }
    for (const std::string& family : families) {
      double best = 0.0;
      for (const ObsRow& row : rows) {
        if (row.family == family) best = std::max(best, row.ratio);
      }
      const bool pass = best >= 0.97;
      std::printf("obs_guard %-19s best ratio %.3fx (floor 0.970x) %s\n",
                  family.c_str(), best, pass ? "OK" : "FAIL");
      ok = ok && pass;
    }
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark sees the command line.
  std::string bench4_out = "BENCH_4.json";
  std::string scale_out = "BENCH_scale.json";
  std::string obs_out = "BENCH_obs.json";
  bool lane_guard = false;
  bool scale_guard = false;
  bool obs_guard = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--bench4_out=", 13) == 0) {
      bench4_out = arg + 13;
    } else if (std::strncmp(arg, "--scale_out=", 12) == 0) {
      scale_out = arg + 12;
    } else if (std::strncmp(arg, "--obs_out=", 10) == 0) {
      obs_out = arg + 10;
    } else if (std::strcmp(arg, "--lane_guard") == 0) {
      lane_guard = true;
    } else if (std::strcmp(arg, "--scale_guard") == 0) {
      scale_guard = true;
    } else if (std::strcmp(arg, "--obs_guard") == 0) {
      obs_guard = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  // google-benchmark's flags are parsed before anything is measured or
  // written, so --help or a misspelled flag leaves the JSON files alone.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return EXIT_FAILURE;

  if (!verify_identical_samples()) return EXIT_FAILURE;
  report_paired_throughput();
  const std::vector<Bench4Row> bench4 = run_bench4();
  write_bench4_json(bench4, bench4_out);
  if (lane_guard && !lane_guard_passes(bench4)) return EXIT_FAILURE;
  const std::vector<ScaleRow> scale = run_scale();
  write_scale_json(scale, scale_out);
  if (!scale_results_pass(scale, scale_guard)) return EXIT_FAILURE;
  obs::MetricsRegistry obs_registry;
  std::uint64_t expected_on_steps = 0;
  const std::vector<ObsRow> obs_rows = run_obs(obs_registry, expected_on_steps);
  write_obs_json(obs_rows, obs_out);
  if (!obs_results_pass(obs_rows, obs_registry, expected_on_steps, obs_guard)) {
    return EXIT_FAILURE;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EXIT_SUCCESS;
}
