// P3 — ablation benchmarks for the engine's design choices:
//   1. Lemire nearly-divisionless bounded sampling vs modulo reduction;
//   2. gather-style distribution evolution (CSR rows) vs dense matvec.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/generators.hpp"
#include "linalg/markov.hpp"
#include "walk/cover.hpp"

namespace {

using namespace manywalks;

// --- 1. bounded sampling -----------------------------------------------

void BM_BoundedLemire(benchmark::State& state) {
  Rng rng(2);
  std::uint32_t bound = 3;  // typical vertex degree
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_below(bound));
    bound = (bound & 7u) + 2u;
  }
}
BENCHMARK(BM_BoundedLemire);

void BM_BoundedModulo(benchmark::State& state) {
  Rng rng(2);
  std::uint32_t bound = 3;
  for (auto _ : state) {
    // Biased baseline: one 64-bit draw + modulo.
    benchmark::DoNotOptimize(static_cast<std::uint32_t>(rng.next() % bound));
    bound = (bound & 7u) + 2u;
  }
}
BENCHMARK(BM_BoundedModulo);

// --- 2. distribution evolution ------------------------------------------

void BM_EvolveCsrGather(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)));
  std::vector<double> p(g.num_vertices(), 0.0);
  p[0] = 1.0;
  std::vector<double> q(g.num_vertices());
  for (auto _ : state) {
    evolve_distribution(g, p, q);
    p.swap(q);
    benchmark::DoNotOptimize(p[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_EvolveCsrGather)->Arg(32)->Arg(96);

void BM_EvolveDenseMatvec(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)));
  // Row-stochastic P as a dense matrix; p_{t+1} = P^T p_t via multiply on
  // the transpose (built once).
  const DenseMatrix p_matrix = transition_matrix_dense(g);
  DenseMatrix pt(g.num_vertices(), g.num_vertices());
  for (Vertex i = 0; i < g.num_vertices(); ++i) {
    for (Vertex j = 0; j < g.num_vertices(); ++j) {
      pt.at(j, i) = p_matrix.at(i, j);
    }
  }
  std::vector<double> p(g.num_vertices(), 0.0);
  p[0] = 1.0;
  for (auto _ : state) {
    p = pt.multiply(p);
    benchmark::DoNotOptimize(p[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_EvolveDenseMatvec)->Arg(32)->Arg(96);

// --- context: full cover sample cost at matching sizes -------------------

void BM_CoverSampleForScale(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_cover_time(g, 0, rng).steps);
  }
}
BENCHMARK(BM_CoverSampleForScale)->Arg(32)->Arg(96);

}  // namespace
