// The storage/ subsystem: mwg round-trips across every generator family,
// malformed-file rejection, mmap-vs-in-core walk-engine bit identity
// (including the registered mwg experiments, in core and --block-walk),
// external edge-list ingestion corner cases, and the zero-adjacency-read
// contract of the shallow (info) load path at 10^6 vertices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/experiments_mwg.hpp"
#include "cli/graph_tool.hpp"
#include "cli/sinks.hpp"
#include "core/families.hpp"
#include "graph/generators.hpp"
#include "storage/block_store.hpp"
#include "storage/ingest.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "walk/engine.hpp"
#include "walk/sampling.hpp"

namespace manywalks {
namespace {

/// Unique-per-name scratch path, removed by the fixture-free helper's
/// destructor so failed tests don't leave multi-MB files behind.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("manywalks_test_storage_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_same_arrays(const Graph& g, const MappedGraph& mapped) {
  ASSERT_EQ(g.num_vertices(), mapped.num_vertices());
  ASSERT_EQ(g.num_arcs(), mapped.num_arcs());
  EXPECT_EQ(g.num_edges(), mapped.num_edges());
  EXPECT_EQ(g.num_loops(), mapped.num_loops());
  if (g.num_vertices() > 0) {
    EXPECT_EQ(g.min_degree(), mapped.min_degree());
    EXPECT_EQ(g.max_degree(), mapped.max_degree());
  }
  const auto go = g.offsets();
  const auto mo = mapped.offsets();
  ASSERT_EQ(go.size(), mo.size());
  for (std::size_t i = 0; i < go.size(); ++i) ASSERT_EQ(go[i], mo[i]);
  const auto gt = g.targets();
  const auto mt = mapped.targets();
  ASSERT_EQ(gt.size(), mt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) ASSERT_EQ(gt[i], mt[i]);
}

// --- round trips -------------------------------------------------------------

TEST(MwgRoundtrip, EveryGeneratorFamily) {
  TempFile file("family.mwg");
  for (GraphFamily family : all_families()) {
    SCOPED_TRACE(family_name(family));
    const FamilyInstance instance = make_family_instance(family, 64, /*seed=*/3);
    write_mwg(file.path(), instance.graph);
    const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
    expect_same_arrays(instance.graph, mapped);
  }
}

TEST(MwgRoundtrip, LoopsAndParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 0).add_edge(0, 1).add_edge(0, 1).add_edge(1, 2);
  GraphBuilder::BuildOptions options;
  options.duplicates = GraphBuilder::DuplicatePolicy::kKeep;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = b.build(options);
  TempFile file("multi.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  expect_same_arrays(g, mapped);
  EXPECT_EQ(mapped.num_loops(), 1u);
}

TEST(MwgRoundtrip, ToGraphMaterializesIdenticalGraph) {
  const Graph g = make_barbell(21);
  TempFile file("tograph.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  const Graph back = to_graph(mapped);
  expect_same_arrays(back, mapped);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(MwgRoundtrip, SubstrateWriterMatchesGraphWriterByteForByte) {
  // The streaming substrate writer must produce the canonical CSR file —
  // including the hypercube, whose substrate enumerates rows in bit order
  // (unsorted) and so exercises the per-row sort, and the torus, whose
  // rows mix the interior shortcut with wrapped border rows — in v1 and
  // in v2 with a block index.
  struct Case {
    const char* name;
    Graph graph;
    std::function<void(const std::string&, std::uint32_t)> write_substrate;
  };
  const Case cases[] = {
      {"cycle", make_cycle(33),
       [](const std::string& p, std::uint32_t bits) {
         write_mwg(p, CycleSubstrate(33), bits);
       }},
      {"hypercube", make_hypercube(4),
       [](const std::string& p, std::uint32_t bits) {
         write_mwg(p, HypercubeSubstrate(4), bits);
       }},
      {"complete", make_complete(9),
       [](const std::string& p, std::uint32_t bits) {
         write_mwg(p, CompleteSubstrate(9), bits);
       }},
      {"torus 3", make_grid_2d(3),
       [](const std::string& p, std::uint32_t bits) {
         write_mwg(p, TorusSubstrate(3), bits);
       }},
      {"torus 65", make_grid_2d(65),
       [](const std::string& p, std::uint32_t bits) {
         write_mwg(p, TorusSubstrate(65), bits);
       }},
  };
  for (const Case& c : cases) {
    for (std::uint32_t bits : {0u, 4u}) {
      SCOPED_TRACE(testing::Message() << c.name << " block_bits=" << bits);
      TempFile from_graph("w_graph.mwg");
      TempFile from_substrate("w_substrate.mwg");
      write_mwg(from_graph.path(), c.graph, bits);
      c.write_substrate(from_substrate.path(), bits);
      EXPECT_EQ(file_bytes(from_graph.path()),
                file_bytes(from_substrate.path()));
    }
  }
}

TEST(MwgRoundtrip, EmptyAndIsolatedGraphs) {
  TempFile file("empty.mwg");
  GraphBuilder lonely(5);  // 5 isolated vertices, no edges
  const Graph g = lonely.build();
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.num_vertices(), 5u);
  EXPECT_EQ(mapped.num_arcs(), 0u);
  EXPECT_EQ(mapped.min_degree(), 0u);
  // Unwalkable: the substrate binding refuses, load/info do not.
  EXPECT_THROW(mapped.substrate(), std::invalid_argument);
}

// --- malformed-file rejection ------------------------------------------------

class CorruptFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = make_margulis_expander(8);
    write_mwg(file_.path(), graph_);
  }

  /// Overwrites `count` bytes at `offset` with `value`.
  void stomp(std::uint64_t offset, std::size_t count, char value) {
    std::fstream f(file_.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    const std::string bytes(count, value);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void truncate_to(std::uint64_t bytes) {
    std::filesystem::resize_file(file_.path(), bytes);
  }

  Graph graph_;
  TempFile file_{"corrupt.mwg"};
};

TEST_F(CorruptFixture, RejectsBadMagic) {
  stomp(0, 1, 'X');
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsWrongEndianness) {
  // Byte-swap the endianness tag: 0x01020304 stored little-endian is
  // 04 03 02 01 on disk; reversing those bytes simulates a big-endian
  // producer. The error must name the byte order, not a generic failure.
  std::fstream f(file_.path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(8);
  char tag[4];
  f.read(tag, 4);
  std::swap(tag[0], tag[3]);
  std::swap(tag[1], tag[2]);
  f.seekp(8);
  f.write(tag, 4);
  f.close();
  try {
    const MappedGraph mapped(file_.path());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte order"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptFixture, RejectsUnknownVersion) {
  stomp(12, 1, 9);
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsTruncatedFile) {
  const std::uint64_t full =
      mwg_file_bytes(graph_.num_vertices(), graph_.num_arcs());
  truncate_to(full - 4);  // one missing target
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
  truncate_to(kMwgHeaderBytes - 1);  // not even a header
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsHeaderDegreeMismatch) {
  // min_degree lives at byte 40; lying about it must be caught by the
  // structure scan (a wrong cached degree range would mis-bind engines).
  stomp(40, 1, 3);
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, DeepValidationCatchesGarbageTargets) {
  stomp(mwg_targets_begin(graph_.num_vertices()), 4, '\xff');
  // Shallow load never reads targets, so it accepts the file...
  EXPECT_NO_THROW(MappedGraph{file_.path()});
  // ...and deep validation rejects it.
  EXPECT_THROW(MappedGraph(file_.path(), MappedGraph::Validate::kDeep),
               std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsAbandonedWrite) {
  // A writer that never finish()ed leaves a zeroed header.
  TempFile unfinished("unfinished.mwg");
  {
    MwgWriter writer(unfinished.path(), 3);
    const Vertex row[] = {1};
    writer.append_row(row);
    // no finish()
  }
  EXPECT_THROW(MappedGraph{unfinished.path()}, std::invalid_argument);
}

// Environmental I/O failures are MwgIoError with a user-facing message —
// no "requirement violated"/file:line diagnostics noise — so the CLI can
// print what() verbatim (`manywalks graph info missing.mwg`).
TEST(MwgIoErrors, MissingPathThrowsCleanIoError) {
  const std::string missing = "/nonexistent-dir/manywalks-missing.mwg";
  try {
    const MappedGraph mapped(missing);
    FAIL() << "expected MwgIoError";
  } catch (const MwgIoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_EQ(what.find("requirement violated"), std::string::npos) << what;
  }
}

TEST(MwgIoErrors, UnwritableWriterPathThrowsCleanIoError) {
  try {
    MwgWriter writer("/nonexistent-dir/out.mwg", 3);
    FAIL() << "expected MwgIoError";
  } catch (const MwgIoError& error) {
    EXPECT_NE(std::string(error.what()).find("for writing"),
              std::string::npos)
        << error.what();
  }
}

// A device that refuses the write is an environmental failure too: the
// writer reports it as MwgIoError, not as a violated requirement.
TEST(MwgIoErrors, FullDeviceWriteThrowsCleanIoError) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  try {
    write_mwg(full, make_cycle(4096));
    FAIL() << "expected MwgIoError";
  } catch (const MwgIoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(full), std::string::npos) << what;
    EXPECT_EQ(what.find("requirement violated"), std::string::npos) << what;
  }
}

// The writer checks the stream after every row: on a full device the
// first refused buffer flush throws from append_row, long before finish().
TEST(MwgIoErrors, FullDeviceFailsAtTheFirstRefusedRow) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  const Graph g = make_cycle(1 << 16);  // 512 KiB of targets: many flushes
  MwgWriter writer(full, g.num_vertices());
  try {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      writer.append_row(g.neighbors(v));
    }
    FAIL() << "expected MwgIoError from append_row";
  } catch (const MwgIoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(full), std::string::npos) << what;
    EXPECT_EQ(what.find("requirement violated"), std::string::npos) << what;
  }
  EXPECT_LT(writer.rows_appended(), writer.num_vertices());
}

// MwgIoError still lands in generic std::exception handlers (it must never
// bypass the CLI's catch).
TEST(MwgIoErrors, IsARuntimeError) {
  EXPECT_THROW(MappedGraph{"/nonexistent-dir/x.mwg"}, std::runtime_error);
}

// The offsets array and block index are read at open into memory the
// MappedGraph owns: a store cut short afterwards still answers every
// metadata query. (Its targets stay mapped, so they are not read here.)
TEST(MwgIoErrors, MetadataSurvivesTruncationAfterOpen) {
  TempFile file("shrunk.mwg");
  const Graph g = make_margulis_expander(64);  // n = 4096
  write_mwg(file.path(), g, 9);                // 8 blocks of 512 vertices
  const MappedGraph mapped(file.path());
  const std::vector<std::uint64_t> offsets(mapped.offsets().begin(),
                                           mapped.offsets().end());
  const std::vector<std::uint64_t> begins(mapped.block_arc_begin().begin(),
                                          mapped.block_arc_begin().end());
  std::filesystem::resize_file(file.path(), 4096);
  ASSERT_TRUE(std::equal(offsets.begin(), offsets.end(),
                         mapped.offsets().begin(), mapped.offsets().end()));
  ASSERT_TRUE(std::equal(begins.begin(), begins.end(),
                         mapped.block_arc_begin().begin(),
                         mapped.block_arc_begin().end()));
  const Vertex last = mapped.num_vertices() - 1;
  EXPECT_EQ(mapped.degree(last), g.degree(last));
  EXPECT_EQ(mapped.block_arc_begin()[mapped.num_blocks() - 1],
            g.offsets()[(mapped.num_blocks() - 1) << 9]);
}

// --- mmap-vs-in-core engine bit identity -------------------------------------

std::vector<std::uint64_t> sample_steps(WalkEngineT<CsrSubstrate>& engine,
                                        Vertex n, std::uint64_t seed) {
  std::vector<std::uint64_t> steps;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(seed, trial);
    const std::vector<Vertex> starts(4, static_cast<Vertex>(trial % n));
    engine.reset(starts);
    const CoverSample sample = engine.run_until_visited(n, rng);
    EXPECT_TRUE(sample.covered);
    steps.push_back(sample.steps);
  }
  return steps;
}

TEST(MappedEngine, BitIdenticalToInCore) {
  // One regular graph (margulis — the stride path) and one irregular
  // (barbell — the staged pipeline): the mapped file must reproduce the
  // in-core engine byte for byte.
  const Graph graphs[] = {make_margulis_expander(6), make_barbell(31)};
  for (const Graph& g : graphs) {
    TempFile file("identity.mwg");
    write_mwg(file.path(), g);
    const MappedGraph mapped(file.path());
    WalkEngineT<CsrSubstrate> in_core{CsrSubstrate(g)};
    WalkEngineT<CsrSubstrate> off_disk{mapped.substrate()};
    EXPECT_EQ(sample_steps(in_core, g.num_vertices(), 99),
              sample_steps(off_disk, g.num_vertices(), 99));
  }
}

TEST(MappedEngine, RunForStepsTokensMatch) {
  const Graph g = make_grid_2d(7);
  TempFile file("tokens.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  WalkEngineT<CsrSubstrate> in_core{CsrSubstrate(g)};
  WalkEngineT<CsrSubstrate> off_disk{mapped.substrate()};
  const std::vector<Vertex> starts(8, 3);
  Rng rng_a(5), rng_b(5);
  in_core.reset(starts);
  off_disk.reset(starts);
  in_core.run_for_steps(200, rng_a);
  off_disk.run_for_steps(200, rng_b);
  const auto ta = in_core.tokens();
  const auto tb = off_disk.tokens();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
  EXPECT_EQ(in_core.num_visited(), off_disk.num_visited());
}

TEST(MappedEngine, StationaryCsrSamplingMatchesGraphSampling) {
  const Graph g = make_barbell(21);
  TempFile file("stationary.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  Rng rng_a(11), rng_b(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sample_stationary_vertex(g, rng_a),
              sample_stationary_vertex_csr(mapped.offsets(), rng_b));
  }
}

// --- the registered experiments off a file -----------------------------------

TEST(MwgExperiments, SpeedupByteIdenticalMappedVsInCore) {
  // The mwg-speedup experiment body run from the file produces
  // byte-identical results to the same graph built in memory, same seed.
  const Graph g = make_margulis_expander(6);
  TempFile file("exp.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());

  cli::ExperimentParams params;
  params.seed = 51;
  params.trials = 10;
  params.kmax = 4;
  ThreadPool pool(2);

  const ExperimentResult from_file = cli::run_mwg_speedup_on_substrate(
      mapped.substrate(), "graph", params, pool, CoverOptions{});
  const ExperimentResult in_core = cli::run_mwg_speedup_on_substrate(
      CsrSubstrate(g), "graph", params, pool, CoverOptions{});
  EXPECT_EQ(cli::render_json(from_file), cli::render_json(in_core));
}

TEST(MwgExperiments, StartsByteIdenticalMappedVsInCore) {
  const Graph g = make_grid_2d(6);
  TempFile file("starts.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());

  cli::ExperimentParams params;
  params.seed = 52;
  params.trials = 10;
  params.k = 4;
  ThreadPool pool(2);
  const ExperimentResult from_file = cli::run_mwg_starts_on_substrate(
      mapped.substrate(), "graph", params, pool, CoverOptions{});
  const ExperimentResult in_core = cli::run_mwg_starts_on_substrate(
      CsrSubstrate(g), "graph", params, pool, CoverOptions{});
  EXPECT_EQ(cli::render_json(from_file), cli::render_json(in_core));
}

TEST(MwgExperiments, RegisteredRunnersWorkEndToEnd) {
  const Graph g = make_grid_2d(6);
  TempFile file("registered.mwg");
  write_mwg(file.path(), g);
  ThreadPool pool(2);
  for (const char* name : {"mwg-speedup", "mwg-starts"}) {
    SCOPED_TRACE(name);
    const cli::Experiment* experiment = cli::default_registry().find(name);
    ASSERT_NE(experiment, nullptr);
    cli::ExperimentParams params;
    params.seed = experiment->info.default_seed;
    params.trials = 8;
    params.kmax = 4;
    params.k = 2;
    params.graph = file.path();
    const ExperimentResult result = experiment->run(params, pool);
    EXPECT_EQ(result.name, name);
    ASSERT_FALSE(result.tables.empty());
    EXPECT_FALSE(result.tables.front().rows().empty());
  }
}

TEST(MwgExperiments, BlockWalkTablesEqualInCore) {
  // Determinism contract v4 as the registry serves it: the --block-walk
  // runs of both mwg experiments print the in-core run's tables at a
  // budget that holds one extent and at one that holds the whole store.
  const Graph g = make_margulis_expander(16);
  TempFile file("block_walk.mwg");
  write_mwg(file.path(), g, /*block_bits=*/5);
  ThreadPool pool(2);
  const auto tables_json = [](const ExperimentResult& result) {
    ExperimentResult tables_only;
    tables_only.tables = result.tables;
    return cli::render_json(tables_only);
  };
  for (const char* name : {"mwg-speedup", "mwg-starts"}) {
    SCOPED_TRACE(name);
    const cli::Experiment* experiment = cli::default_registry().find(name);
    ASSERT_NE(experiment, nullptr);
    cli::ExperimentParams params;
    params.seed = experiment->info.default_seed;
    params.trials = 8;
    params.kmax = 8;
    params.k = 8;
    params.graph = file.path();
    const std::string in_core = tables_json(experiment->run(params, pool));
    params.block_walk = true;
    for (const char* budget : {"4K", "256M"}) {
      SCOPED_TRACE(budget);
      params.mem_budget = budget;
      EXPECT_EQ(in_core, tables_json(experiment->run(params, pool)));
    }
  }
}

TEST(MwgExperiments, LargestExtentIsTheHeaviestBlocksTargets) {
  // lollipop(24): a clique head and a path tail, so the 8-vertex blocks
  // carry very different arc counts. The largest extent is the heaviest
  // block's degree sum in 4-byte targets, for both loaders; a v1 file has
  // no blocks and reports 0.
  const Graph g = make_lollipop(24);
  std::uint64_t heaviest = 0;
  for (Vertex first = 0; first < g.num_vertices(); first += 8) {
    std::uint64_t arcs = 0;
    for (Vertex v = first; v < std::min<Vertex>(first + 8, g.num_vertices());
         ++v) {
      arcs += g.degree(v);
    }
    heaviest = std::max(heaviest, arcs);
  }
  TempFile v2("largest_extent_v2.mwg");
  write_mwg(v2.path(), g, /*block_bits=*/3);
  EXPECT_EQ(BlockedGraph(v2.path()).largest_extent_bytes(), heaviest * 4);
  EXPECT_EQ(MappedGraph(v2.path()).largest_extent_bytes(), heaviest * 4);
  TempFile v1("largest_extent_v1.mwg");
  write_mwg(v1.path(), g);
  EXPECT_EQ(MappedGraph(v1.path()).largest_extent_bytes(), 0u);
}

TEST(MwgExperiments, BlockWalkPreambleNamesABudgetBelowTheLargestExtent) {
  // margulis(16) at block bits 5: 32 vertices x 8 arcs x 4 bytes = 1,024
  // bytes per extent. A smaller budget still holds one extent, and the
  // preamble says so; a budget that fits one says nothing of it. The
  // tables are the same either way.
  const Graph g = make_margulis_expander(16);
  TempFile file("preamble_budget.mwg");
  write_mwg(file.path(), g, /*block_bits=*/5);
  const cli::Experiment* experiment =
      cli::default_registry().find("mwg-starts");
  ASSERT_NE(experiment, nullptr);
  ThreadPool pool(1);
  cli::ExperimentParams params;
  params.seed = experiment->info.default_seed;
  params.trials = 8;
  params.k = 4;
  params.graph = file.path();
  params.block_walk = true;
  const std::string kBelow =
      "The budget is below the largest extent, so the cache still holds one "
      "extent of up to 1,024 bytes.";
  std::string tables;
  for (const char* budget : {"1", "1023", "1024", "256M"}) {
    SCOPED_TRACE(budget);
    params.mem_budget = budget;
    const ExperimentResult result = experiment->run(params, pool);
    ASSERT_FALSE(result.preamble.empty());
    const std::string& preamble = result.preamble.back();
    EXPECT_NE(preamble.find("(graph metadata stays resident)"),
              std::string::npos)
        << preamble;
    EXPECT_EQ(preamble.find("mapped"), std::string::npos) << preamble;
    const bool below = std::string(budget) == "1" ||
                       std::string(budget) == "1023";
    EXPECT_EQ(preamble.find(kBelow) != std::string::npos, below) << preamble;
    ExperimentResult tables_only;
    tables_only.tables = result.tables;
    const std::string json = cli::render_json(tables_only);
    if (tables.empty()) tables = json;
    EXPECT_EQ(json, tables);
  }
}

TEST(MwgExperiments, MissingGraphFlagIsAClearError) {
  ThreadPool pool(1);
  cli::ExperimentParams params;
  params.trials = 4;
  try {
    cli::default_registry().find("mwg-speedup")->run(params, pool);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--graph"), std::string::npos)
        << e.what();
  }
}

// --- external edge-list ingestion --------------------------------------------

EdgeListIngestResult ingest_text(const std::string& text,
                                 const EdgeListIngestOptions& options = {}) {
  std::istringstream is(text);
  return ingest_edge_list(is, options);
}

TEST(Ingest, RelabelsNonContiguousIdsDeterministically) {
  const auto result = ingest_text("# comment\n500 7\n7 1000000007\n");
  EXPECT_EQ(result.graph.num_vertices(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 2u);
  // Dense ids by ascending original id, independent of edge order.
  EXPECT_EQ(result.original_ids,
            (std::vector<std::uint64_t>{7, 500, 1000000007}));
  EXPECT_TRUE(result.graph.has_edge(1, 0));
  EXPECT_TRUE(result.graph.has_edge(0, 2));
  EXPECT_FALSE(result.graph.has_edge(1, 2));
}

TEST(Ingest, DedupCollapsesBothDirectionsAndRepeats) {
  const auto result = ingest_text("1 2\n2 1\n1 2\n2 3\n");
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.stats.duplicates_dropped, 2u);
  EXPECT_TRUE(result.graph.is_simple());
}

TEST(Ingest, KeepDuplicatesBuildsParallelEdges) {
  EdgeListIngestOptions options;
  options.dedup = false;
  const auto result = ingest_text("1 2\n2 1\n", options);
  EXPECT_EQ(result.graph.num_edges(), 2u);  // parallel pair
  EXPECT_EQ(result.graph.edge_multiplicity(0, 1), 2u);
}

TEST(Ingest, SelfLoopPolicies) {
  const auto dropped = ingest_text("1 1\n1 2\n");
  EXPECT_EQ(dropped.stats.self_loops_dropped, 1u);
  EXPECT_EQ(dropped.graph.num_loops(), 0u);

  EdgeListIngestOptions keep;
  keep.drop_self_loops = false;
  const auto kept = ingest_text("1 1\n1 2\n", keep);
  EXPECT_EQ(kept.graph.num_loops(), 1u);
  EXPECT_EQ(kept.graph.degree(0), 2u);  // loop adds one arc
}

TEST(Ingest, LargestComponentExtractionRemapsOriginalIds) {
  // Components {10,11,12} (triangle) and {20,21} (edge).
  const std::string text = "10 11\n11 12\n12 10\n20 21\n";
  const auto whole = ingest_text(text);
  EXPECT_EQ(whole.stats.num_components, 2u);
  EXPECT_EQ(whole.stats.vertices_outside_largest, 2u);
  EXPECT_EQ(whole.graph.num_vertices(), 5u);

  EdgeListIngestOptions lcc;
  lcc.largest_component = true;
  const auto largest = ingest_text(text, lcc);
  EXPECT_EQ(largest.graph.num_vertices(), 3u);
  EXPECT_EQ(largest.graph.num_edges(), 3u);
  EXPECT_EQ(largest.original_ids, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(Ingest, CommentsWhitespaceAndCrlf) {
  const auto result =
      ingest_text("% matrix-market style comment\n"
                  "# snap style comment\n"
                  "\n"
                  "   \t\n"
                  "1\t2\r\n"
                  "  2   3  \n");
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.stats.comment_lines, 4u);
}

TEST(Ingest, MalformedRowsNameTheLine) {
  for (const char* text : {"1 2\nfish 3\n", "1 2\n3\n", "1 2\n1 2 0.5\n",
                           "1 2\n-1 3\n"}) {
    SCOPED_TRACE(text);
    try {
      ingest_text(text);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Ingest, EmptyInputIsAnError) {
  EXPECT_THROW(ingest_text("# nothing\n"), std::invalid_argument);
  EXPECT_THROW(ingest_text("5 5\n"), std::invalid_argument);  // only a loop
}

TEST(Ingest, RoundTripsThroughMwg) {
  const auto result = ingest_text("0 1\n1 2\n2 0\n2 3\n");
  TempFile file("ingested.mwg");
  write_mwg(file.path(), result.graph);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  expect_same_arrays(result.graph, mapped);
}

// --- the graph tool CLI ------------------------------------------------------

int run_graph_tool(std::vector<std::string> args) {
  args.insert(args.begin(), "graph");  // argv[0] slot, as manywalks_main passes
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return cli::graph_tool_main(static_cast<int>(argv.size()), argv.data());
}

TEST(GraphTool, ConvertAcceptsAllOptionSpellings) {
  TempFile edges("cli_edges.txt");
  {
    std::ofstream out(edges.path());
    out << "# comment\n1 2\n2 3\n3 1\n";
  }
  TempFile mwg("cli_out.mwg");
  // --in=V, --in V (space-separated values must not be eaten by the
  // positional scan), and the leading positional form.
  EXPECT_EQ(run_graph_tool({"convert", "--in=" + edges.path(),
                            "--out=" + mwg.path()}),
            0);
  EXPECT_EQ(run_graph_tool({"convert", "--in", edges.path(),
                            "--largest-component", "--out", mwg.path()}),
            0);
  EXPECT_EQ(run_graph_tool({"convert", edges.path(), "--out=" + mwg.path()}),
            0);
  const MappedGraph mapped(mwg.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.num_vertices(), 3u);
  EXPECT_EQ(run_graph_tool({"info", mwg.path(), "--deep"}), 0);
  EXPECT_EQ(run_graph_tool({"info", "--in=" + mwg.path()}), 0);
}

TEST(GraphTool, GenStreamMatchesInCoreGen) {
  // `gen --stream` writes from an implicit substrate, `gen` from the
  // family's CSR graph; the files must be the same bytes.
  for (const char* family : {"cycle", "complete", "grid2d"}) {
    for (const char* bits : {"--block-bits=0", "--block-bits=5"}) {
      SCOPED_TRACE(testing::Message() << family << " " << bits);
      TempFile in_core("cli_gen_in_core.mwg");
      TempFile streamed("cli_gen_streamed.mwg");
      const std::string family_flag = std::string("--family=") + family;
      ASSERT_EQ(run_graph_tool({"gen", family_flag, "--n=300", bits,
                                "--out=" + in_core.path()}),
                0);
      ASSERT_EQ(run_graph_tool({"gen", family_flag, "--n=300", bits,
                                "--stream", "--out=" + streamed.path()}),
                0);
      EXPECT_EQ(file_bytes(in_core.path()), file_bytes(streamed.path()));
    }
  }
}

TEST(GraphTool, GenInfoRoundTrip) {
  TempFile mwg("cli_gen.mwg");
  EXPECT_EQ(run_graph_tool({"gen", "--family=cycle", "--n=64",
                            "--out=" + mwg.path()}),
            0);
  const MappedGraph mapped(mwg.path(), MappedGraph::Validate::kDeep);
  // The family registry rounds to its natural parameterization (odd n
  // for cycles), so only the rough size is pinned here.
  EXPECT_GE(mapped.num_vertices(), 64u);
  EXPECT_TRUE(mapped.is_regular());
  EXPECT_EQ(mapped.min_degree(), 2u);
  EXPECT_EQ(run_graph_tool({"info", mwg.path()}), 0);
  // Errors are exit codes, not exceptions, at the tool boundary.
  EXPECT_EQ(run_graph_tool({"gen", "--family=nope", "--out=" + mwg.path()}), 1);
  EXPECT_EQ(run_graph_tool({"info", "/nonexistent.mwg"}), 1);
  EXPECT_EQ(run_graph_tool({"frobnicate"}), 1);
}

// --- the zero-adjacency-read contract at 10^6 vertices -----------------------

TEST(MwgInfoScale, MillionVertexShallowLoadNeverTouchesAdjacency) {
  // A 10^6-vertex cycle streamed from the implicit substrate (no CSR graph
  // is ever built), then the entire adjacency region is overwritten with
  // garbage. The shallow (info) load still succeeds with correct stats —
  // proof it reads only the header and the offsets array — while deep
  // validation, which does read the adjacency, rejects the file.
  constexpr Vertex kN = 1'000'000;
  TempFile file("million.mwg");
  write_mwg(file.path(), CycleSubstrate(kN));
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(mwg_targets_begin(kN)));
    const std::string garbage(4096, '\xff');
    std::uint64_t remaining = static_cast<std::uint64_t>(kN) * 2 * sizeof(Vertex);
    while (remaining > 0) {
      const auto chunk = std::min<std::uint64_t>(remaining, garbage.size());
      f.write(garbage.data(), static_cast<std::streamsize>(chunk));
      remaining -= chunk;
    }
  }
  const MappedGraph mapped(file.path());  // structure validation only
  EXPECT_EQ(mapped.num_vertices(), kN);
  EXPECT_EQ(mapped.num_arcs(), static_cast<std::uint64_t>(kN) * 2);
  EXPECT_EQ(mapped.num_edges(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(mapped.min_degree(), 2u);
  EXPECT_EQ(mapped.max_degree(), 2u);
  EXPECT_TRUE(mapped.is_regular());
  EXPECT_THROW(MappedGraph(file.path(), MappedGraph::Validate::kDeep),
               std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
