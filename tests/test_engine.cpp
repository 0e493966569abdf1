#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "reference_walks.hpp"
#include "util/thread_pool.hpp"
#include "walk/cover.hpp"
#include "walk/hitting.hpp"

namespace manywalks {
namespace {

struct Instance {
  const char* name;
  Graph g;
};

std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  instances.push_back({"cycle", make_cycle(64)});
  instances.push_back({"grid2d", make_grid_2d(8)});
  instances.push_back({"hypercube", make_hypercube(6)});
  instances.push_back({"complete", make_complete(32)});
  instances.push_back({"margulis", make_margulis_expander(8)});
  return instances;
}

// --- lane reference oracle ----------------------------------------------------

/// Runs cover trials of the engine and of the plain lane reference walk on
/// the same trial streams: steps, covered flag, final tokens, visited set
/// and the caller's rng state must all match exactly.
template <class S>
void expect_cover_matches_lane_reference(const S& substrate,
                                         std::span<const Vertex> starts,
                                         Vertex target,
                                         const CoverOptions& options = {}) {
  WalkEngineT<S> engine(substrate);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(testing::Message() << "k=" << starts.size()
                                    << " target=" << target
                                    << " trial=" << trial);
    Rng ref_rng = make_trial_rng(0x0eac1eULL, trial);
    Rng eng_rng = make_trial_rng(0x0eac1eULL, trial);
    LaneReferenceWalk<S> reference(substrate, starts);
    const CoverSample expected =
        reference.run_until_visited(target, ref_rng, options);
    engine.reset(starts);
    const CoverSample actual =
        engine.run_until_visited(target, eng_rng, options);
    ASSERT_EQ(expected.steps, actual.steps);
    ASSERT_EQ(expected.covered, actual.covered);
    ASSERT_EQ(ref_rng.state(), eng_rng.state());
    ASSERT_EQ(reference.num_visited(), engine.num_visited());
    for (Vertex v = 0; v < substrate.num_vertices(); ++v) {
      ASSERT_EQ(reference.visited(v), engine.visited(v)) << "v=" << v;
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ASSERT_EQ(reference.tokens()[i], engine.tokens()[i]) << "lane=" << i;
    }
  }
}

/// Token counts around the kernels' block sizes: a single lane, a partial
/// 4-lane strip, one full 16-lane pipeline block, and several blocks with
/// a ragged tail.
const unsigned kLaneCounts[] = {1u, 3u, 16u, 37u};

/// Starts spread over the vertex range (deterministic, repeats allowed).
std::vector<Vertex> spread(unsigned k, Vertex n) {
  std::vector<Vertex> starts(k);
  for (unsigned i = 0; i < k; ++i) starts[i] = (i * 7919u) % n;
  return starts;
}

template <class S>
void expect_all_matches_lane_reference(const S& substrate,
                                       const CoverOptions& options = {}) {
  const Vertex n = substrate.num_vertices();
  for (const unsigned k : kLaneCounts) {
    const std::vector<Vertex> starts = spread(k, n);
    expect_cover_matches_lane_reference(substrate, starts, n, options);
    expect_cover_matches_lane_reference(substrate, starts, n / 2 + 1,
                                        options);
  }
  // A capped run ends uncovered at exactly the cap.
  CoverOptions capped = options;
  capped.step_cap = 5;
  expect_cover_matches_lane_reference(substrate, spread(3, n), n, capped);
}

TEST(LaneOracle, IrregularCsrGraphsTakeTheStagedPipeline) {
  const Graph barbell = make_barbell(21);
  const Graph lollipop = make_lollipop(24);
  ASSERT_EQ(CsrSubstrate(barbell).regular_stride(), 0u);
  ASSERT_EQ(CsrSubstrate(lollipop).regular_stride(), 0u);
  expect_all_matches_lane_reference(CsrSubstrate(barbell));
  expect_all_matches_lane_reference(CsrSubstrate(lollipop));
}

TEST(LaneOracle, RegularCsrGraphsTakeTheStridePath) {
  // Degree 8 (mask draw) and degrees 6 and 31 (full-word draw).
  const Graph margulis = make_margulis_expander(8);
  const Graph hypercube = make_hypercube(6);
  const Graph complete = make_complete(32);
  ASSERT_EQ(CsrSubstrate(margulis).regular_stride(), 8u);
  expect_all_matches_lane_reference(CsrSubstrate(margulis));
  expect_all_matches_lane_reference(CsrSubstrate(hypercube));
  expect_all_matches_lane_reference(CsrSubstrate(complete));
}

TEST(LaneOracle, HypercubeSubstrateMaskDraw) {
  expect_all_matches_lane_reference(HypercubeSubstrate(8));  // degree 8
}

TEST(LaneOracle, OddSideTorusAndWideDrawSubstrates) {
  // The odd-side torus exercises the wrap arithmetic off powers of two;
  // its degree is 4 (mask draw). Degree 29 and degree 5 take the hoisted
  // full-word draw.
  expect_all_matches_lane_reference(TorusSubstrate(9));
  expect_all_matches_lane_reference(CompleteSubstrate(30));
  expect_all_matches_lane_reference(HypercubeSubstrate(5));
}

TEST(LaneOracle, LazyWalksMatch) {
  CoverOptions lazy;
  lazy.laziness = 0.25;
  const Graph barbell = make_barbell(21);
  const Graph margulis = make_margulis_expander(8);
  expect_all_matches_lane_reference(CsrSubstrate(barbell), lazy);
  expect_all_matches_lane_reference(CsrSubstrate(margulis), lazy);
  expect_all_matches_lane_reference(TorusSubstrate(9), lazy);
  expect_all_matches_lane_reference(CycleSubstrate(33), lazy);
}

/// run_for_steps in two chunks with visit counters against one reference
/// run: implicit substrates take the lane-major strip schedule here, CSR
/// the round-major kernels.
template <class S>
void expect_steps_match_lane_reference(const S& substrate, double laziness) {
  const Vertex n = substrate.num_vertices();
  for (const unsigned k : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " laziness=" << laziness);
    const std::vector<Vertex> starts = spread(k, n);
    Rng ref_rng(k + 17);
    Rng eng_rng(k + 17);
    std::vector<std::uint64_t> ref_counts(n, 0);
    std::vector<std::uint64_t> eng_counts(n, 0);
    LaneReferenceWalk<S> reference(substrate, starts);
    reference.run_for_steps(50, ref_rng, laziness, ref_counts.data());
    WalkEngineT<S> engine(substrate);
    engine.reset(starts);
    engine.run_for_steps(20, eng_rng, laziness, eng_counts.data());
    engine.run_for_steps(30, eng_rng, laziness, eng_counts.data());
    ASSERT_EQ(ref_rng.state(), eng_rng.state());
    ASSERT_EQ(ref_counts, eng_counts);
    ASSERT_EQ(reference.num_visited(), engine.num_visited());
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_EQ(reference.visited(v), engine.visited(v)) << "v=" << v;
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ASSERT_EQ(reference.tokens()[i], engine.tokens()[i]) << "lane=" << i;
    }
  }
}

TEST(LaneOracle, RunForStepsMatchesOnEverySubstrateKind) {
  const Graph barbell = make_barbell(21);
  const Graph margulis = make_margulis_expander(8);
  for (const double laziness : {0.0, 0.25}) {
    expect_steps_match_lane_reference(TorusSubstrate(9), laziness);
    expect_steps_match_lane_reference(CycleSubstrate(101), laziness);
    expect_steps_match_lane_reference(HypercubeSubstrate(8), laziness);
    expect_steps_match_lane_reference(CompleteSubstrate(30), laziness);
    expect_steps_match_lane_reference(CsrSubstrate(barbell), laziness);
    expect_steps_match_lane_reference(CsrSubstrate(margulis), laziness);
  }
}

// --- hitting samplers on the lane engine ---------------------------------------

/// Runs one hitting sampler and the lane reference's run_until_hit on the
/// same trial streams: steps, hit flag and the caller's rng state must all
/// match exactly.
template <class Sampler>
void expect_hit_matches_lane_reference(const Graph& g,
                                       std::span<const Vertex> starts,
                                       const std::vector<bool>& in_target,
                                       const HitOptions& options,
                                       Sampler sampler) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(testing::Message() << "k=" << starts.size()
                                    << " trial=" << trial);
    Rng ref_rng = make_trial_rng(0x417ULL, trial);
    Rng eng_rng = make_trial_rng(0x417ULL, trial);
    LaneReferenceWalk<CsrSubstrate> reference(CsrSubstrate(g), starts);
    const HitSample expected =
        reference.run_until_hit(in_target, ref_rng, options);
    const HitSample actual = sampler(eng_rng);
    ASSERT_EQ(expected.steps, actual.steps);
    ASSERT_EQ(expected.hit, actual.hit);
    ASSERT_EQ(ref_rng.state(), eng_rng.state());
  }
}

/// All four hitting samplers on `g`: the k-walk and target-set samplers
/// for k in {1, 3, 16}, single-walk hitting and return time. The targets
/// avoid every start, so no sampler takes its round-0 exit.
void expect_hitting_matches_lane_reference(const Graph& g,
                                           const HitOptions& options = {}) {
  const Vertex n = g.num_vertices();
  for (const unsigned k : {1u, 3u, 16u}) {
    const std::vector<Vertex> starts = spread(k, n);
    std::vector<bool> is_start(n, false);
    for (const Vertex s : starts) is_start[s] = true;
    std::vector<Vertex> off_start;  // descending
    for (Vertex v = n; v-- > 0;) {
      if (!is_start[v]) off_start.push_back(v);
    }
    ASSERT_GE(off_start.size(), 3u);
    const Vertex target = off_start.front();
    std::vector<bool> single(n, false);
    single[target] = true;
    std::vector<bool> set(n, false);
    set[off_start.front()] = set[off_start[off_start.size() / 2]] =
        set[off_start.back()] = true;
    expect_hit_matches_lane_reference(g, starts, single, options,
                                      [&](Rng& rng) {
                                        return sample_multi_hitting_time(
                                            g, starts, target, rng, options);
                                      });
    expect_hit_matches_lane_reference(g, starts, set, options, [&](Rng& rng) {
      return sample_multi_hitting_to_set(g, starts, set, rng, options);
    });
  }
  const Vertex from[1] = {0};
  std::vector<bool> to(n, false);
  to[n - 1] = true;
  expect_hit_matches_lane_reference(g, from, to, options, [&](Rng& rng) {
    return sample_hitting_time(g, 0, n - 1, rng, options);
  });
  std::vector<bool> home(n, false);
  home[0] = true;
  expect_hit_matches_lane_reference(g, from, home, options, [&](Rng& rng) {
    return sample_return_time(g, 0, rng, options);
  });
}

TEST(LaneOracle, HittingOnIrregularCsrTakesTheStagedPipeline) {
  const Graph lollipop = make_lollipop(24);
  ASSERT_EQ(CsrSubstrate(lollipop).regular_stride(), 0u);
  expect_hitting_matches_lane_reference(lollipop);
}

TEST(LaneOracle, HittingOnRegularCsrTakesTheStridePath) {
  const Graph odd_cycle = make_cycle(33);
  const Graph margulis = make_margulis_expander(8);
  ASSERT_EQ(CsrSubstrate(odd_cycle).regular_stride(), 2u);
  ASSERT_EQ(CsrSubstrate(margulis).regular_stride(), 8u);
  expect_hitting_matches_lane_reference(odd_cycle);
  expect_hitting_matches_lane_reference(margulis);
}

TEST(LaneOracle, HittingLazyWalksMatch) {
  HitOptions lazy;
  lazy.laziness = 0.25;
  expect_hitting_matches_lane_reference(make_lollipop(24), lazy);
  expect_hitting_matches_lane_reference(make_margulis_expander(8), lazy);
}

TEST(LaneOracle, HittingCappedRunsCensorAtTheCap) {
  HitOptions capped;
  capped.step_cap = 3;
  expect_hitting_matches_lane_reference(make_lollipop(24), capped);
  expect_hitting_matches_lane_reference(make_cycle(33), capped);
}

// --- engine contracts ------------------------------------------------------------

TEST(WalkEngine, StepCapTruncates) {
  const Graph g = make_cycle(1024);  // cover needs ~n^2/2 steps, cap first
  WalkEngine engine(g);
  const Vertex starts[1] = {0};
  CoverOptions options;
  options.step_cap = 10;
  Rng rng(1);
  engine.reset(starts);
  const CoverSample sample = engine.run_until_visited(g.num_vertices(), rng, options);
  EXPECT_FALSE(sample.covered);
  EXPECT_EQ(sample.steps, 10u);

  // A zero cap runs no rounds at all.
  Rng rng2(1);
  options.step_cap = 0;
  engine.reset(starts);
  const CoverSample none = engine.run_until_visited(g.num_vertices(), rng2, options);
  EXPECT_FALSE(none.covered);
  EXPECT_EQ(none.steps, 0u);
  EXPECT_EQ(rng2.state(), Rng(1).state());  // no draws consumed
}

TEST(WalkEngine, AlreadyCoveredStartsAgreeAcrossK) {
  // target <= #distinct starts: covered at t=0 with zero steps and zero RNG
  // draws, for k = 1 and k > 1 alike.
  const Graph g = make_complete(8);
  WalkEngine engine(g);
  for (unsigned k : {1u, 5u}) {
    const std::vector<Vertex> starts(k, 3);
    Rng rng(42);
    engine.reset(starts);
    const CoverSample sample = engine.run_until_visited(1, rng);
    EXPECT_TRUE(sample.covered) << "k=" << k;
    EXPECT_EQ(sample.steps, 0u) << "k=" << k;
    EXPECT_EQ(rng.state(), Rng(42).state()) << "k=" << k;
  }
}

TEST(WalkEngine, RunForStepsMatchesRoundGranularity) {
  const Graph g = make_grid_2d(8);
  const std::vector<Vertex> starts = {0, 5, 9};
  // Advancing in two chunks must equal one combined run (same RNG stream).
  WalkEngine a(g);
  WalkEngine b(g);
  Rng rng_a(7);
  Rng rng_b(7);
  a.reset(starts);
  a.run_for_steps(10, rng_a);
  a.run_for_steps(6, rng_a);
  b.reset(starts);
  b.run_for_steps(16, rng_b);
  EXPECT_EQ(rng_a.state(), rng_b.state());
  ASSERT_EQ(a.tokens().size(), b.tokens().size());
  for (std::size_t i = 0; i < a.tokens().size(); ++i) {
    EXPECT_EQ(a.tokens()[i], b.tokens()[i]);
  }
  EXPECT_EQ(a.num_visited(), b.num_visited());
}

TEST(WalkEngine, VisitCountsSumToTokenSteps) {
  const Graph g = make_cycle(32);
  WalkEngine engine(g);
  const std::vector<Vertex> starts = {0, 16};
  engine.reset(starts);
  std::vector<std::uint64_t> counts(g.num_vertices(), 0);
  Rng rng(11);
  engine.run_for_steps(100, rng, 0.0, counts.data());
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, 200u);  // 2 tokens x 100 rounds
}

TEST(WalkEngine, ValidatesArguments) {
  const Graph g = make_cycle(8);
  WalkEngine engine(g);
  // Running a never-reset engine must throw, not spin forever on zero
  // tokens.
  {
    Rng rng(3);
    WalkEngine unseeded(g);
    EXPECT_THROW(unseeded.run_until_visited(1, rng), std::invalid_argument);
    EXPECT_THROW(unseeded.run_for_steps(1, rng), std::invalid_argument);
  }
  EXPECT_THROW(engine.reset({}), std::invalid_argument);
  const Vertex bad[1] = {8};
  EXPECT_THROW(engine.reset(bad), std::invalid_argument);

  const Vertex ok[1] = {0};
  engine.reset(ok);
  Rng rng(1);
  CoverOptions options;
  options.laziness = 1.0;
  EXPECT_THROW(engine.run_until_visited(g.num_vertices(), rng, options),
               std::invalid_argument);
  EXPECT_THROW(engine.run_for_steps(1, rng, -0.1), std::invalid_argument);
}

TEST(WalkEngine, GraphEngineMatchesCsrLaneReference) {
  // WalkEngine(g) binds CsrSubstrate(g): it must walk that substrate
  // exactly as the plain lane reference walk does, draw for draw.
  for (const auto& [name, g] : test_instances()) {
    WalkEngine engine(g);
    const std::vector<Vertex> starts(3, 0);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      Rng ref_rng = make_trial_rng(0xabcULL, trial);
      Rng eng_rng = make_trial_rng(0xabcULL, trial);
      LaneReferenceWalk<CsrSubstrate> reference(CsrSubstrate(g), starts);
      const CoverSample expected =
          reference.run_until_visited(g.num_vertices(), ref_rng);
      engine.reset(starts);
      const CoverSample actual =
          engine.run_until_visited(g.num_vertices(), eng_rng);
      ASSERT_EQ(expected.steps, actual.steps) << name << " trial=" << trial;
      ASSERT_EQ(ref_rng.state(), eng_rng.state()) << name << " trial=" << trial;
    }
  }
}

TEST(WalkEngine, BoundToTracksLiveCsrArrays) {
  const Graph a = make_cycle(16);
  const Graph b = make_cycle(16);  // same shape, different arrays
  WalkEngine engine(a);
  EXPECT_TRUE(engine.bound_to(a));
  EXPECT_FALSE(engine.bound_to(b));

  // bound_to is a pure query: an unwalkable graph yields false, it does
  // not throw (only *binding* to such a graph does).
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 isolated
  const Graph unwalkable = builder.build();
  EXPECT_FALSE(engine.bound_to(unwalkable));
}

TEST(CoverSamplers, InterleavedGraphsStayDeterministic) {
  // The free samplers reuse a per-thread engine; alternating between two
  // graphs must rebind correctly and reproduce the single-graph sequences.
  const Graph a = make_cycle(32);
  const Graph b = make_grid_2d(6);
  std::vector<std::uint64_t> lone_a, lone_b;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng = make_trial_rng(1, trial);
    lone_a.push_back(sample_cover_time(a, 0, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng = make_trial_rng(2, trial);
    lone_b.push_back(sample_k_cover_time(b, 0, 3, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng_a = make_trial_rng(1, trial);
    EXPECT_EQ(sample_cover_time(a, 0, rng_a).steps, lone_a[trial]);
    Rng rng_b = make_trial_rng(2, trial);
    EXPECT_EQ(sample_k_cover_time(b, 0, 3, rng_b).steps, lone_b[trial]);
  }
}

TEST(WalkEngine, ShardCountAndThreadCountAreInvisible) {
  // Determinism contract v3: for a fixed seed, the sharded round driver
  // must be BIT-identical to the serial lane path — same steps, same
  // visited count, same visited set — for every shard count, with and
  // without a worker team.
  constexpr std::uint64_t kMasterSeed = 0xc3ULL;
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  for (const auto& [name, g] : test_instances()) {
    WalkEngine serial(g);
    WalkEngine sharded(g);
    const std::vector<Vertex> starts(16, 0);
    const auto target = static_cast<Vertex>(g.num_vertices());
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      Rng ref_rng = make_trial_rng(kMasterSeed, trial);
      serial.reset(starts);
      const CoverSample expected = serial.run_until_visited(target, ref_rng);
      for (const unsigned shards : {1u, 2u, 8u}) {
        for (ThreadPool* pool : {(ThreadPool*)nullptr, &pool1, &pool3}) {
          CoverOptions opt;
          opt.lane_shards = shards;
          opt.shard_pool = pool;
          Rng rng = make_trial_rng(kMasterSeed, trial);
          sharded.reset(starts);
          const CoverSample actual = sharded.run_until_visited(target, rng, opt);
          ASSERT_EQ(expected.steps, actual.steps)
              << name << " trial=" << trial << " shards=" << shards
              << " pool=" << (pool != nullptr);
          ASSERT_EQ(expected.covered, actual.covered) << name;
          ASSERT_EQ(serial.num_visited(), sharded.num_visited()) << name;
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            ASSERT_EQ(serial.visited(v), sharded.visited(v))
                << name << " v=" << v << " shards=" << shards;
          }
        }
      }
    }
  }
}

TEST(WalkEngine, ShardedPartialTargetsMatchSerial) {
  // Partial-cover targets exercise the replay of the covering epoch: the
  // sharded driver must stop at exactly the serial crossing round, never
  // at the epoch's end (a late stop means the replay was skipped or
  // started from the wrong state).
  const Graph g = make_cycle(512);
  WalkEngine serial(g);
  WalkEngine sharded(g);
  ThreadPool pool(2);
  const std::vector<Vertex> starts(8, 0);
  for (const Vertex target : {Vertex{9}, Vertex{64}, Vertex{256}}) {
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      Rng ref_rng = make_trial_rng(0xeeULL, trial);
      serial.reset(starts);
      const CoverSample expected = serial.run_until_visited(target, ref_rng);
      CoverOptions opt;
      opt.lane_shards = 4;
      opt.shard_pool = &pool;
      Rng rng = make_trial_rng(0xeeULL, trial);
      sharded.reset(starts);
      const CoverSample actual = sharded.run_until_visited(target, rng, opt);
      ASSERT_EQ(expected.steps, actual.steps)
          << "target=" << target << " trial=" << trial;
      ASSERT_EQ(serial.num_visited(), sharded.num_visited());
    }
  }
}

TEST(WalkEngine, ShardedStepCapTruncatesLikeSerial) {
  const Graph g = make_cycle(1024);
  ThreadPool pool(2);
  WalkEngine engine(g);
  const std::vector<Vertex> starts(4, 0);
  CoverOptions opt;
  opt.step_cap = 10;
  opt.lane_shards = 2;
  opt.shard_pool = &pool;
  Rng rng(5);
  engine.reset(starts);
  const CoverSample sample =
      engine.run_until_visited(g.num_vertices(), rng, opt);
  EXPECT_FALSE(sample.covered);
  EXPECT_EQ(sample.steps, 10u);
  // The capped run's visited set is still exact (the final round merges).
  Vertex bits = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) bits += engine.visited(v);
  EXPECT_EQ(bits, engine.num_visited());
}

TEST(WalkEngine, ShardedEndStateMatchesSerial) {
  // The sharded driver replays its covering epoch serially from the
  // epoch's saved tokens and lane streams. Its end state must be the
  // serial lane run's: same tokens and visited set after the run, and the
  // same again after both engines continue with a fixed-steps run and a
  // second, higher-target run. Caps of 45 and 64 rounds stop mid-epoch
  // and on an epoch boundary.
  constexpr std::uint64_t kNoCap = CoverOptions{}.step_cap;
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  std::vector<Instance> instances;
  instances.push_back({"grid2d", make_grid_2d(12)});  // staged CSR round
  instances.push_back({"margulis", make_margulis_expander(16)});  // stride
  std::uint64_t capped = 0;
  std::uint64_t mid_epoch = 0;
  for (const auto& [name, g] : instances) {
    const Vertex n = g.num_vertices();
    WalkEngine serial(g);
    WalkEngine sharded(g);
    std::vector<Vertex> starts;
    for (Vertex i = 0; i < 8; ++i) starts.push_back(i * 37 % n);
    const auto expect_same_state = [&](const char* phase) {
      ASSERT_EQ(serial.num_visited(), sharded.num_visited()) << phase;
      const auto a = serial.tokens();
      const auto b = sharded.tokens();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << phase;
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(serial.visited(v), sharded.visited(v)) << phase << " v=" << v;
      }
    };
    for (const double laziness : {0.0, 0.3}) {
      for (const auto& [target, cap] :
           {std::pair<Vertex, std::uint64_t>{n / 4, kNoCap},
            {n / 2, kNoCap}, {n, kNoCap}, {n / 2, 45}, {n, 45}, {n, 64}}) {
        for (const unsigned shards : {1u, 2u, 8u}) {
          for (ThreadPool* pool : {(ThreadPool*)nullptr, &pool1, &pool3}) {
            for (std::uint64_t trial = 0; trial < 3; ++trial) {
              SCOPED_TRACE(testing::Message()
                           << name << " laziness=" << laziness
                           << " target=" << target << " cap=" << cap
                           << " shards=" << shards
                           << " pool=" << (pool == nullptr ? 0 : pool->size())
                           << " trial=" << trial);
              CoverOptions serial_opt;
              serial_opt.laziness = laziness;
              serial_opt.step_cap = cap;
              CoverOptions opt = serial_opt;
              opt.lane_shards = shards;
              opt.shard_pool = pool;
              Rng ref_rng = make_trial_rng(0x5eedULL, trial);
              Rng rng = make_trial_rng(0x5eedULL, trial);
              serial.reset(starts);
              sharded.reset(starts);
              const CoverSample expected =
                  serial.run_until_visited(target, ref_rng, serial_opt);
              const CoverSample actual =
                  sharded.run_until_visited(target, rng, opt);
              ASSERT_EQ(expected.steps, actual.steps);
              ASSERT_EQ(expected.covered, actual.covered);
              capped += expected.covered ? 0 : 1;
              mid_epoch += expected.steps % kShardEpochRounds != 0 ? 1 : 0;
              expect_same_state("first run");

              serial.run_for_steps(37, ref_rng, laziness);
              sharded.run_for_steps(37, rng, laziness);
              expect_same_state("run_for_steps");

              const Vertex higher =
                  std::min<Vertex>(n, serial.num_visited() + n / 4);
              serial_opt.step_cap = kNoCap;
              opt.step_cap = kNoCap;
              const CoverSample expected2 =
                  serial.run_until_visited(higher, ref_rng, serial_opt);
              const CoverSample actual2 =
                  sharded.run_until_visited(higher, rng, opt);
              ASSERT_EQ(expected2.steps, actual2.steps);
              ASSERT_EQ(expected2.covered, actual2.covered);
              expect_same_state("second run");
              ASSERT_EQ(ref_rng.state(), rng.state());
            }
          }
        }
      }
    }
  }
  // The sweep really exercised capped runs and mid-epoch crossings.
  EXPECT_GT(capped, 0u);
  EXPECT_GT(mid_epoch, 0u);
}

TEST(WalkEngine, LaneAndSharedStreamDistributionsAgree) {
  // The sharded lane path and the shared-stream reference walk draw from
  // different streams, so their samples differ trial by trial — but they
  // sample the SAME cover-time distribution. A two-sample mean test with a
  // generous gate catches gross distributional drift (e.g. a shard losing
  // or double-counting visits) without flaking.
  const Graph g = make_margulis_expander(8);
  ThreadPool pool(2);
  WalkEngine engine(g);
  const std::vector<Vertex> starts(8, 0);
  const auto target = static_cast<Vertex>(g.num_vertices());
  constexpr int kTrials = 300;
  double sum_lane = 0, sum_shared = 0, sq_lane = 0, sq_shared = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    CoverOptions sharded;
    sharded.lane_shards = 4;
    sharded.shard_pool = &pool;
    Rng rng_lane = make_trial_rng(0x10, trial);
    engine.reset(starts);
    const auto lane =
        static_cast<double>(engine.run_until_visited(target, rng_lane, sharded).steps);
    Rng rng_shared = make_trial_rng(0x20, trial);
    const auto shared = static_cast<double>(
        shared_stream_cover(g, starts, target, rng_shared).steps);
    sum_lane += lane;
    sum_shared += shared;
    sq_lane += lane * lane;
    sq_shared += shared * shared;
  }
  const double mean_lane = sum_lane / kTrials;
  const double mean_shared = sum_shared / kTrials;
  const double var_lane = sq_lane / kTrials - mean_lane * mean_lane;
  const double var_shared = sq_shared / kTrials - mean_shared * mean_shared;
  const double se = std::sqrt((var_lane + var_shared) / kTrials);
  // ~5.5 sigma two-sample z gate: false-positive odds are negligible while
  // any systematic visit-accounting bug shifts the mean far beyond it.
  EXPECT_LT(std::abs(mean_lane - mean_shared), 5.5 * se + 1e-9)
      << "lane mean " << mean_lane << " vs shared-stream mean " << mean_shared;
}

TEST(WalkEngine, RejectsImpossibleTarget) {
  const Graph g = make_cycle(8);
  WalkEngine engine(g);
  const Vertex starts[1] = {0};
  engine.reset(starts);
  Rng rng(9);
  EXPECT_THROW(engine.run_until_visited(9, rng), std::invalid_argument);
}

TEST(WalkEngine, RejectsUnwalkableGraph) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 isolated
  const Graph g = builder.build();
  EXPECT_THROW(WalkEngine{g}, std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
