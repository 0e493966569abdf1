// Out-of-core block-scheduled walking (determinism contract v4): mwg v2
// round-trips and index validation, BlockedGraph/ExtentCache mechanics,
// and — the heart of the contract — bit-identity of BlockWalkEngine
// against the in-core lane engine at every budget, on cover runs,
// fixed-round runs, chunked runs, lazy walks, and through the Monte-Carlo
// estimators run on the shared block engine.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/families.hpp"
#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "walk/block_engine.hpp"
#include "walk/engine.hpp"
#include "walk/walker_buckets.hpp"

namespace manywalks {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("manywalks_test_block_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- mwg v2 format -----------------------------------------------------------

TEST(MwgV2, RoundTripPreservesArraysAndIndex) {
  TempFile file("v2_roundtrip.mwg");
  const Graph g = make_grid_2d(31, GridTopology::kTorus);  // n = 961
  const std::uint32_t bits = 8;  // 4 blocks of 256 vertices
  write_mwg(file.path(), g, bits);

  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.version(), kMwgVersionBlockIndex);
  ASSERT_TRUE(mapped.has_block_index());
  EXPECT_EQ(mapped.block_bits(), bits);
  ASSERT_EQ(mapped.num_blocks(), mwg_num_blocks(g.num_vertices(), bits));
  EXPECT_EQ(mapped.file_bytes(),
            mwg_file_bytes_v2(g.num_vertices(), g.num_arcs(), bits));

  // The index is derivable from the offsets: check it entry by entry.
  const auto offsets = g.offsets();
  const auto begins = mapped.block_arc_begin();
  const auto max_deg = mapped.block_max_degree();
  ASSERT_EQ(begins.size(), mapped.num_blocks() + 1);
  ASSERT_EQ(max_deg.size(), mapped.num_blocks());
  for (std::uint64_t b = 0; b < mapped.num_blocks(); ++b) {
    EXPECT_EQ(begins[b], offsets[b << bits]);
    Vertex expect_max = 0;
    const Vertex first = static_cast<Vertex>(b << bits);
    const Vertex last =
        std::min<Vertex>(g.num_vertices(), static_cast<Vertex>(first + (Vertex{1} << bits)));
    for (Vertex v = first; v < last; ++v) {
      expect_max = std::max(expect_max, g.degree(v));
    }
    EXPECT_EQ(max_deg[b], expect_max) << "block " << b;
  }
  EXPECT_EQ(begins[mapped.num_blocks()], g.num_arcs());

  // And the CSR arrays are exactly the v1 arrays.
  const auto mo = mapped.offsets();
  for (std::size_t i = 0; i < mo.size(); ++i) ASSERT_EQ(mo[i], offsets[i]);
  const auto gt = g.targets();
  const auto mt = mapped.targets();
  for (std::size_t i = 0; i < mt.size(); ++i) ASSERT_EQ(mt[i], gt[i]);
}

TEST(MwgV2, DefaultLibraryWriteStaysV1) {
  TempFile file("v1_default.mwg");
  write_mwg(file.path(), make_cycle(64));
  const MappedGraph mapped(file.path());
  EXPECT_EQ(mapped.version(), kMwgVersion);
  EXPECT_FALSE(mapped.has_block_index());
  EXPECT_EQ(mapped.num_blocks(), 0u);
}

TEST(MwgV2, BlockedGraphRejectsV1WithUpgradeHint) {
  TempFile file("v1_reject.mwg");
  write_mwg(file.path(), make_cycle(64));
  try {
    const BlockedGraph blocked(file.path());
    FAIL() << "BlockedGraph accepted a v1 file";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("graph convert"),
              std::string::npos)
        << "rejection should tell the user how to upgrade: " << error.what();
  }
}

/// Overwrites the bytes at `offset` with `value`.
template <class T>
void poke(const std::string& path, std::uint64_t offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// What a loader's rejection says, minus the " [file:line]" suffix; empty
/// when the loader accepts the file.
template <class Loader>
std::string rejection(const std::string& path) {
  try {
    const Loader loader(path);
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    return what.substr(0, what.rfind(" ["));
  }
  return "";
}

// Both loaders share one header check and one structure scan, so every
// single-field corruption of a v2 file must be rejected by both, with the
// same message, naming the rule it broke.
TEST(MwgV2, EveryCorruptionRejectedAlikeByBothLoaders) {
  const Graph g = make_grid_2d(31, GridTopology::kTorus);  // 4-regular
  const std::uint32_t bits = 8;  // 4 blocks of 256 vertices
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t size = mwg_file_bytes_v2(n, g.num_arcs(), bits);
  const std::uint64_t index = mwg_block_index_begin(n, g.num_arcs());
  const std::uint64_t blocks = mwg_num_blocks(n, bits);
  const std::uint64_t max_degrees =
      index + (blocks + 1) * sizeof(std::uint64_t);
  const auto offset_of = [](std::uint64_t v) {
    return mwg_offsets_begin() + v * sizeof(std::uint64_t);
  };

  struct Corruption {
    const char* name;
    std::function<void(const std::string&)> apply;
    const char* expect;  // a fragment of the message naming the rule
  };
  const std::vector<Corruption> table = {
      {"bad magic", [](const std::string& p) { poke(p, 0, 'X'); },
       "bad magic"},
      {"byte-swapped endian tag",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, endian), std::uint32_t{0x04030201u});
       },
       "opposite byte order"},
      {"version 9",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, version), std::uint32_t{9});
       },
       "mwg version 9"},
      {"n = 2^32",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, num_vertices), std::uint64_t{1} << 32);
       },
       "exceeds the 32-bit vertex limit"},
      {"block_bits 0",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, reserved), std::uint64_t{0});
       },
       "v2 block_bits 0 outside"},
      {"block_bits 32",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, reserved), std::uint64_t{32});
       },
       "v2 block_bits 32 outside"},
      {"nonzero reserved[1]",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, reserved) + sizeof(std::uint64_t),
              std::uint64_t{1});
       },
       "reserved field is nonzero"},
      {"truncated file",
       [&](const std::string& p) {
         std::filesystem::resize_file(p, size - 4);
       },
       "truncated or padded"},
      {"padded file",
       [&](const std::string& p) {
         std::filesystem::resize_file(p, size + 8);
       },
       "truncated or padded"},
      {"offsets[0] != 0",
       [&](const std::string& p) { poke(p, offset_of(0), std::uint64_t{1}); },
       "offsets must start at 0"},
      {"non-monotone offsets",
       [&](const std::string& p) {
         poke(p, offset_of(1), g.offsets()[2] + 1);
       },
       "offsets not monotone at vertex 1"},
      {"lying min degree",
       [](const std::string& p) {
         poke(p, offsetof(MwgHeader, min_degree), Vertex{3});
       },
       "header degree range [3,4]"},
      {"lying index entry",
       [&](const std::string& p) {
         poke(p, index + sizeof(std::uint64_t), std::uint64_t{7});
       },
       "block index claims block 1 starts at arc 7"},
      {"lying max degree",
       [&](const std::string& p) { poke(p, max_degrees, Vertex{999}); },
       "block index claims block 0 max degree 999"},
      {"lying index end",
       [&](const std::string& p) {
         poke(p, index + blocks * sizeof(std::uint64_t), g.num_arcs() + 1);
       },
       "block index ends at arc"},
  };

  TempFile file("v2_corrupt.mwg");
  for (const Corruption& row : table) {
    write_mwg(file.path(), g, bits);
    row.apply(file.path());
    const std::string mapped = rejection<MappedGraph>(file.path());
    const std::string blocked = rejection<BlockedGraph>(file.path());
    EXPECT_NE(mapped.find(row.expect), std::string::npos)
        << row.name << ": " << mapped;
    EXPECT_EQ(mapped, blocked) << row.name;
  }
}

TEST(MwgV2, DefaultBlockBitsPolicy) {
  EXPECT_EQ(mwg_default_block_bits(0), 12u);
  EXPECT_EQ(mwg_default_block_bits(4096), 12u);
  EXPECT_EQ(mwg_default_block_bits(1024 * 4096), 12u);
  EXPECT_EQ(mwg_default_block_bits(1024 * 4096 + 1), 13u);
  // Never exceeds the format cap, however big n gets.
  EXPECT_LE(mwg_default_block_bits(~std::uint64_t{0}), kMwgMaxBlockBits);
}

// --- BlockedGraph / ExtentCache ---------------------------------------------

TEST(BlockedGraph, GeometryMatchesMappedGraph) {
  TempFile file("geometry.mwg");
  const Graph g = make_margulis_expander(16);  // n = 256, 8-regular
  write_mwg(file.path(), g, 6);                // 4 blocks of 64 vertices
  const BlockedGraph blocked(file.path());
  const MappedGraph mapped(file.path());
  ASSERT_EQ(blocked.num_vertices(), mapped.num_vertices());
  ASSERT_EQ(blocked.num_arcs(), mapped.num_arcs());
  ASSERT_EQ(blocked.num_blocks(), mapped.num_blocks());
  for (Vertex v = 0; v < blocked.num_vertices(); ++v) {
    ASSERT_EQ(blocked.degree(v), mapped.degree(v));
  }
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    EXPECT_EQ(blocked.block_arc_begin(b), mapped.block_arc_begin()[b]);
    EXPECT_EQ(blocked.block_max_degree(b), mapped.block_max_degree()[b]);
    EXPECT_EQ(blocked.block_of(blocked.block_first_vertex(b)), b);
  }
  // An extent read through the cache sees the same bytes as the full map.
  ExtentCache cache(blocked, 1 << 20);
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const std::byte* raw =
        cache.acquire(blocked.block_byte_begin(b), blocked.block_byte_end(b));
    const auto* arcs = reinterpret_cast<const Vertex*>(raw);
    const std::uint64_t arc0 = blocked.block_arc_begin(b);
    const std::uint64_t arc1 = blocked.block_arc_begin(b + 1);
    for (std::uint64_t a = arc0; a < arc1; ++a) {
      ASSERT_EQ(arcs[a - arc0], mapped.targets()[a]);
    }
  }
}

TEST(ExtentCache, LruAccountingAndEviction) {
  TempFile file("cache.mwg");
  const Graph g = make_margulis_expander(16);  // 2048 arcs, 8 KiB targets
  write_mwg(file.path(), g, 6);                // 4 blocks of 2 KiB extents
  const BlockedGraph blocked(file.path());
  const std::uint64_t extent = blocked.block_byte_end(0) -
                               blocked.block_byte_begin(0);  // 2 KiB, regular

  // Budget for exactly two extents: the third load evicts the oldest.
  ExtentCache cache(blocked, 2 * extent);
  auto get = [&](std::uint64_t b) {
    return cache.acquire(blocked.block_byte_begin(b),
                         blocked.block_byte_end(b));
  };
  get(0);
  get(1);
  EXPECT_EQ(cache.stats().loads, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  get(0);  // hit, refreshes LRU position
  EXPECT_EQ(cache.stats().hits, 1u);
  get(2);  // evicts block 1 (block 0 was refreshed)
  EXPECT_EQ(cache.stats().evictions, 1u);
  get(0);  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  get(1);  // reload
  EXPECT_EQ(cache.stats().loads, 4u);
  EXPECT_LE(cache.stats().resident_bytes, 2 * extent);
  EXPECT_EQ(cache.stats().peak_resident_bytes, 2 * extent);
}

TEST(ExtentCache, OversizedExtentStaysResident) {
  TempFile file("cache_big.mwg");
  const Graph g = make_margulis_expander(16);
  write_mwg(file.path(), g, 6);
  const BlockedGraph blocked(file.path());
  // Budget of 1 byte: every extent exceeds it, yet each acquire must
  // still serve a live mapping (the newest extent never self-evicts).
  ExtentCache cache(blocked, 1);
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const std::byte* raw =
        cache.acquire(blocked.block_byte_begin(b), blocked.block_byte_end(b));
    ASSERT_NE(raw, nullptr);
  }
  EXPECT_EQ(cache.stats().loads, blocked.num_blocks());
  EXPECT_EQ(cache.stats().evictions, blocked.num_blocks() - 1);
}

TEST(ExtentCache, ReusesBuffersAcrossUnequalExtents) {
  TempFile file("cache_irregular.mwg");
  // Cliques 0..7 and 24..31 joined by the path 8..23; 4-vertex blocks.
  // Blocks 0 and 7 are clique-interior (28 arcs, 112 bytes), blocks 2..4
  // path-interior (8 arcs, 32 bytes).
  const Graph g = make_generalized_barbell(8, 16);
  write_mwg(file.path(), g, 2);
  const BlockedGraph blocked(file.path());
  const MappedGraph mapped(file.path());
  const auto bytes_of = [&](std::uint64_t b) {
    return blocked.block_byte_end(b) - blocked.block_byte_begin(b);
  };
  const std::uint64_t large = bytes_of(0);
  const std::uint64_t small = bytes_of(2);
  ASSERT_EQ(large, 112u);
  ASSERT_EQ(small, 32u);
  ASSERT_EQ(bytes_of(7), large);
  ASSERT_EQ(bytes_of(3), small);
  ASSERT_EQ(bytes_of(4), small);
  // Room for one large and one small extent, or three small ones.
  ExtentCache cache(blocked, large + small);

  struct Step {
    std::uint64_t block;
    std::uint64_t loads, hits, evictions;
    int same_buffer_as;  // step whose pointer this one reuses, or -1
  };
  constexpr std::uint64_t L1 = 0, L2 = 7, S1 = 2, S2 = 3, S3 = 4;
  // Hand-computed LRU trace (resident extents listed newest first).
  const std::vector<Step> trace = {
      {L1, 1, 0, 0, -1},  // [L1]
      {S1, 2, 0, 0, -1},  // [S1 L1]
      {L2, 3, 0, 1, 0},   // evicts L1, reads into its buffer: [L2 S1]
      {S2, 4, 0, 2, 1},   // evicts S1, same size: [S2 L2]
      {S3, 5, 0, 3, 0},   // evicts the larger L2, a small extent in a
                          // large buffer: [S3 S2]
      {S1, 6, 0, 3, -1},  // three small ones fit: [S1 S3 S2]
      {S1, 6, 1, 3, 5},   // hit
      {L1, 7, 1, 5, 0},   // evicts S2 (too small to reuse), then S3,
                          // whose buffer fits: [L1 S1]
      {L2, 8, 1, 7, 0},   // evicts S1 (too small), then L1: [L2]
      {L2, 8, 2, 7, 0},   // hit
  };
  std::vector<const std::byte*> pointers;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Step& step = trace[i];
    const std::byte* raw = cache.acquire(blocked.block_byte_begin(step.block),
                                         blocked.block_byte_end(step.block));
    pointers.push_back(raw);
    const auto* arcs = reinterpret_cast<const Vertex*>(raw);
    const std::uint64_t arc0 = blocked.block_arc_begin(step.block);
    for (std::uint64_t a = arc0; a < blocked.block_arc_begin(step.block + 1);
         ++a) {
      ASSERT_EQ(arcs[a - arc0], mapped.targets()[a]) << "step " << i;
    }
    EXPECT_EQ(cache.stats().loads, step.loads) << "step " << i;
    EXPECT_EQ(cache.stats().hits, step.hits) << "step " << i;
    EXPECT_EQ(cache.stats().evictions, step.evictions) << "step " << i;
    if (step.same_buffer_as >= 0) {
      EXPECT_EQ(raw, pointers[step.same_buffer_as]) << "step " << i;
    }
  }
  EXPECT_EQ(cache.stats().bytes_loaded, 4 * large + 4 * small);
  EXPECT_EQ(cache.stats().resident_bytes, large);
  EXPECT_EQ(cache.stats().peak_resident_bytes, large + small);
}

TEST(ExtentCache, StoreTruncatedAfterOpenThrows) {
  TempFile file("cache_truncated.mwg");
  const Graph g = make_margulis_expander(16);
  write_mwg(file.path(), g, 6);
  const BlockedGraph blocked(file.path());
  const std::uint64_t last = blocked.num_blocks() - 1;
  const std::uint64_t begin = blocked.block_byte_begin(last);
  const std::uint64_t end = blocked.block_byte_end(last);
  // Cut the file where the last block's targets start: the header and
  // offsets stay intact, the extent is gone.
  std::filesystem::resize_file(file.path(), begin);
  ExtentCache cache(blocked, 1 << 20);
  try {
    cache.acquire(begin, end);
    FAIL() << "acquire past the truncated end returned";
  } catch (const MwgIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
    EXPECT_NE(what.find("[" + std::to_string(begin) + "," +
                        std::to_string(end) + ")"),
              std::string::npos)
        << what;
    // The file's size now, not the offset where the read stopped.
    EXPECT_NE(what.find("the file is now " + std::to_string(begin) +
                        " bytes"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(cache.stats().loads, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

// A store cut to 4 KiB after open, well inside its offsets array: the
// metadata BlockedGraph read at open still answers every lookup, and only
// the extent read fails.
TEST(ExtentCache, StoreShrunkBelowMetadataKeepsMetadata) {
  TempFile file("cache_shrunk.mwg");
  const Graph g = make_margulis_expander(64);  // n = 4096, 32 KiB offsets
  write_mwg(file.path(), g, 9);                // 8 blocks of 512 vertices
  const BlockedGraph blocked(file.path());
  const std::uint64_t last = blocked.num_blocks() - 1;
  const Vertex tail = blocked.num_vertices() - 1;
  const std::uint64_t arc_begin = blocked.block_arc_begin(last);
  const Vertex max_degree = blocked.block_max_degree(last);
  const Vertex degree = blocked.degree(tail);
  std::filesystem::resize_file(file.path(), 4096);
  EXPECT_EQ(blocked.block_arc_begin(last), arc_begin);
  EXPECT_EQ(blocked.block_max_degree(last), max_degree);
  EXPECT_EQ(blocked.degree(tail), degree);
  EXPECT_EQ(degree, g.degree(tail));
  ExtentCache cache(blocked, 1 << 20);
  EXPECT_THROW(cache.acquire(blocked.block_byte_begin(last),
                             blocked.block_byte_end(last)),
               MwgIoError);
}

TEST(WalkerBuckets, StableAscendingOrder) {
  // 4 blocks, lanes 0..5; lane 3 has no rounds left and is never queued.
  constexpr std::uint32_t kNone = WalkerBuckets::kNone;
  WalkerBuckets buckets;
  buckets.reset(/*num_blocks=*/4, /*num_lanes=*/6);
  EXPECT_TRUE(buckets.empty());
  EXPECT_EQ(buckets.next_block(0), kNone);
  using Visit = std::pair<std::uint32_t, std::uint32_t>;  // (block, lane)
  for (const auto& [block, lane] :
       std::vector<Visit>{{3, 0}, {0, 1}, {1, 2}, {3, 4}, {1, 5}}) {
    buckets.push(block, lane);
  }
  EXPECT_EQ(buckets.next_block(0), 0u);
  EXPECT_EQ(buckets.next_block(2), 3u);
  // Exits taken during the first pass: lane 1 leaves block 0 for block 2
  // (ahead: same pass), lane 2 leaves block 1 for block 0 (behind: next
  // pass), lane 5 leaves block 1 for block 3 (ahead, queued behind the
  // lanes already there).
  std::uint32_t exit_to[6] = {kNone, 2, 0, kNone, kNone, 3};
  std::vector<std::vector<Visit>> passes;
  while (!buckets.empty()) {
    std::vector<Visit>& pass = passes.emplace_back();
    for (std::uint32_t b = buckets.next_block(0); b != kNone;
         b = buckets.next_block(b + 1)) {
      const std::uint32_t drained = buckets.drain(b, [&](std::uint32_t lane) {
        pass.emplace_back(b, lane);
        if (exit_to[lane] != kNone) {
          buckets.push(exit_to[lane], lane);
          exit_to[lane] = kNone;
        }
      });
      EXPECT_GT(drained, 0u);
    }
  }
  const std::vector<std::vector<Visit>> expect = {
      {{0, 1}, {1, 2}, {1, 5}, {2, 1}, {3, 0}, {3, 4}, {3, 5}},
      {{0, 2}},
  };
  EXPECT_EQ(passes, expect);
  EXPECT_EQ(buckets.next_block(0), kNone);
}

TEST(WalkerBuckets, NextBlockScansAcrossBitmapWords) {
  // 200 blocks span four bitmap words; occupied blocks sit in words 0, 1
  // and 3, and word 2 is empty.
  constexpr std::uint32_t kNone = WalkerBuckets::kNone;
  WalkerBuckets buckets;
  buckets.reset(/*num_blocks=*/200, /*num_lanes=*/3);
  buckets.push(199, 0);
  buckets.push(5, 1);
  buckets.push(70, 2);
  EXPECT_EQ(buckets.next_block(0), 5u);
  EXPECT_EQ(buckets.next_block(6), 70u);
  EXPECT_EQ(buckets.next_block(71), 199u);
  EXPECT_EQ(buckets.next_block(128), 199u);
  EXPECT_EQ(buckets.next_block(199), 199u);
  EXPECT_EQ(buckets.next_block(200), kNone);
  EXPECT_EQ(buckets.drain(70, [](std::uint32_t) {}), 1u);
  EXPECT_EQ(buckets.next_block(6), 199u);
  EXPECT_EQ(buckets.drain(199, [](std::uint32_t) {}), 1u);
  EXPECT_EQ(buckets.next_block(6), kNone);
  EXPECT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.drain(5, [](std::uint32_t) {}), 1u);
  EXPECT_TRUE(buckets.empty());
}

// --- the v4 contract: out-of-core == in-core, bit for bit --------------------

struct Instance {
  const char* name;
  Graph graph;
  std::uint32_t block_bits;
};

std::vector<Instance> contract_instances() {
  std::vector<Instance> instances;
  instances.push_back({"torus31", make_grid_2d(31, GridTopology::kTorus), 7});
  instances.push_back({"margulis16", make_margulis_expander(16), 5});
  instances.push_back({"cycle1000", make_cycle(1001), 8});
  return instances;
}

/// Budgets spanning the cache regimes: thrash (every extent oversized),
/// partial residency, and everything-resident. Contract v4 says the walk
/// results cannot depend on which one is used.
const std::uint64_t kBudgets[] = {1, 4096, 1ull << 30};

void expect_same_end_state(const WalkEngineT<CsrSubstrate>& in_core,
                           const BlockWalkEngine& blocked) {
  ASSERT_EQ(in_core.num_visited(), blocked.num_visited());
  const auto a = in_core.tokens();
  const auto b = blocked.tokens();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  for (Vertex v = 0; v < in_core.num_visited(); ++v) {
    ASSERT_EQ(in_core.visited(v), blocked.visited(v)) << "vertex " << v;
  }
}

TEST(BlockEngineContract, CoverBitIdenticalAtEveryBudget) {
  for (auto& [name, graph, bits] : contract_instances()) {
    SCOPED_TRACE(name);
    TempFile file(std::string("cover_") + name + ".mwg");
    write_mwg(file.path(), graph, bits);
    const BlockedGraph blocked(file.path());
    WalkEngineT in_core{CsrSubstrate(graph)};
    const auto target = static_cast<Vertex>(graph.num_vertices() * 9 / 10);
    for (unsigned k : {1u, 8u, 64u}) {
      const std::vector<Vertex> starts(k, 0);
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        Rng rng_a = make_trial_rng(0xb10cULL, trial);
        in_core.reset(starts);
        const CoverSample expect = in_core.run_until_visited(target, rng_a);
        for (const std::uint64_t budget : kBudgets) {
          BlockWalkEngine engine(blocked, budget);
          Rng rng_b = make_trial_rng(0xb10cULL, trial);
          engine.reset(starts);
          const CoverSample got = engine.run_until_visited(target, rng_b);
          ASSERT_EQ(expect.steps, got.steps)
              << "k=" << k << " trial=" << trial << " budget=" << budget;
          ASSERT_EQ(expect.covered, got.covered);
          ASSERT_EQ(rng_a.state(), rng_b.state())
              << "master RNG must advance identically";
          expect_same_end_state(in_core, engine);
        }
      }
    }
  }
}

TEST(BlockEngineContract, StepCapTruncation) {
  // Caps below, at, just past, and beyond one horizon: sample.steps and
  // the end state must match the in-core run under the same cap.
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("cap.mwg");
  write_mwg(file.path(), graph, 7);
  const BlockedGraph blocked(file.path());
  WalkEngineT in_core{CsrSubstrate(graph)};
  const std::vector<Vertex> starts(8, 0);
  for (const std::uint64_t cap : {0ull, 3ull, 64ull, 65ull, 100ull}) {
    SCOPED_TRACE(cap);
    CoverOptions options;
    options.step_cap = cap;
    Rng rng_a(99);
    in_core.reset(starts);
    const CoverSample expect =
        in_core.run_until_visited(graph.num_vertices(), rng_a, options);
    BlockWalkEngine engine(blocked, 4096);
    Rng rng_b(99);
    engine.reset(starts);
    const CoverSample got =
        engine.run_until_visited(graph.num_vertices(), rng_b, options);
    EXPECT_EQ(expect.steps, got.steps);
    EXPECT_EQ(expect.covered, got.covered);
    expect_same_end_state(in_core, engine);
  }
}

TEST(BlockEngineContract, TargetHitMidHorizon) {
  // A tiny target is covered in the first few rounds — inside the first
  // asynchronous horizon — so the first-visit stamps must give the exact
  // covering round.
  const Graph graph = make_margulis_expander(16);
  TempFile file("midblock.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  WalkEngineT in_core{CsrSubstrate(graph)};
  const std::vector<Vertex> starts(4, 0);
  for (Vertex target = 5; target <= 45; target += 10) {
    SCOPED_TRACE(target);
    Rng rng_a(7);
    in_core.reset(starts);
    const CoverSample expect = in_core.run_until_visited(target, rng_a);
    BlockWalkEngine engine(blocked, 1 << 20);
    Rng rng_b(7);
    engine.reset(starts);
    const CoverSample got = engine.run_until_visited(target, rng_b);
    EXPECT_EQ(expect.steps, got.steps);
    EXPECT_EQ(expect.covered, got.covered);
    EXPECT_LT(got.steps, kBlockHorizon) << "test wants a mid-horizon hit";
  }
}

TEST(BlockEngineContract, BlockBoundaryStarts) {
  // Walkers starting on the first and last vertex of each block — the
  // bucketing corner where off-by-one block assignment would show.
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("boundary.mwg");
  write_mwg(file.path(), graph, 7);  // 128-vertex blocks, n = 961
  const BlockedGraph blocked(file.path());
  std::vector<Vertex> starts;
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const Vertex first = blocked.block_first_vertex(b);
    const Vertex last = std::min<Vertex>(
        graph.num_vertices() - 1,
        static_cast<Vertex>(first + (Vertex{1} << 7) - 1));
    starts.push_back(first);
    starts.push_back(last);
  }
  // The block engine runs a fixed 200 rounds as a run to n capped at 200
  // that does not cover; the in-core fixed-rounds run is the reference.
  WalkEngineT in_core{CsrSubstrate(graph)};
  Rng rng_a(3);
  in_core.reset(starts);
  in_core.run_for_steps(200, rng_a);
  BlockWalkEngine engine(blocked, 4096);
  Rng rng_b(3);
  engine.reset(starts);
  EXPECT_FALSE(
      engine.run_until_visited(graph.num_vertices(), rng_b, {.step_cap = 200})
          .covered);
  expect_same_end_state(in_core, engine);
}

TEST(BlockEngineContract, CappedRunsChunkingEquivalent) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("chunks.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  const std::vector<Vertex> starts(16, 3);
  const Vertex n = graph.num_vertices();
  const auto capped = [&](BlockWalkEngine& engine, std::uint64_t rounds,
                          Rng& rng) {
    EXPECT_FALSE(engine.run_until_visited(n, rng, {.step_cap = rounds})
                     .covered);
  };

  BlockWalkEngine combined(blocked, 1 << 16);
  Rng rng_a(11);
  combined.reset(starts);
  capped(combined, 100, rng_a);

  BlockWalkEngine chunked(blocked, 1 << 16);
  Rng rng_b(11);
  chunked.reset(starts);
  capped(chunked, 1, rng_b);
  capped(chunked, 63, rng_b);
  capped(chunked, 0, rng_b);  // no-op, consumes no draws
  capped(chunked, 36, rng_b);

  ASSERT_EQ(combined.num_visited(), chunked.num_visited());
  const auto a = combined.tokens();
  const auto b = chunked.tokens();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  EXPECT_EQ(rng_a.state(), rng_b.state());
}

TEST(BlockEngineContract, LazyWalkBitIdentical) {
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("lazy.mwg");
  write_mwg(file.path(), graph, 7);
  const BlockedGraph blocked(file.path());
  WalkEngineT in_core{CsrSubstrate(graph)};
  const std::vector<Vertex> starts(8, 0);
  CoverOptions options;
  options.laziness = 0.3;
  options.step_cap = 500;
  Rng rng_a(21);
  in_core.reset(starts);
  const CoverSample expect =
      in_core.run_until_visited(graph.num_vertices(), rng_a, options);
  BlockWalkEngine engine(blocked, 4096);
  Rng rng_b(21);
  engine.reset(starts);
  const CoverSample got =
      engine.run_until_visited(graph.num_vertices(), rng_b, options);
  EXPECT_EQ(expect.steps, got.steps);
  EXPECT_EQ(expect.covered, got.covered);
  expect_same_end_state(in_core, engine);
}

TEST(BlockEngineContract, ContinuationAfterCover) {
  // A covered run leaves the state of its covering round. Nothing reads
  // the tokens in between, so the next run is what rebuilds that state
  // from the horizon start: here a fixed 37 rounds, run as a capped run to
  // n that does not cover.
  for (auto& [name, graph, bits] : contract_instances()) {
    SCOPED_TRACE(name);
    TempFile file(std::string("continue_") + name + ".mwg");
    write_mwg(file.path(), graph, bits);
    const BlockedGraph blocked(file.path());
    const Vertex n = graph.num_vertices();
    const std::vector<Vertex> starts(8, 0);
    WalkEngineT in_core{CsrSubstrate(graph)};
    Rng rng_a(0xc0417ULL);
    in_core.reset(starts);
    const CoverSample first_a = in_core.run_until_visited(n / 2, rng_a);
    const Vertex visited_a = in_core.num_visited();
    in_core.run_for_steps(37, rng_a);
    const CoverSample second_a = in_core.run_until_visited(n * 9 / 10, rng_a);
    ASSERT_TRUE(first_a.covered);
    for (const std::uint64_t budget : kBudgets) {
      SCOPED_TRACE(budget);
      BlockWalkEngine engine(blocked, budget);
      Rng rng_b(0xc0417ULL);
      engine.reset(starts);
      const CoverSample first_b = engine.run_until_visited(n / 2, rng_b);
      EXPECT_EQ(first_a.steps, first_b.steps);
      EXPECT_EQ(visited_a, engine.num_visited());
      EXPECT_FALSE(engine.run_until_visited(n, rng_b, {.step_cap = 37})
                       .covered);
      const CoverSample second_b = engine.run_until_visited(n * 9 / 10, rng_b);
      EXPECT_EQ(second_a.steps, second_b.steps);
      EXPECT_EQ(second_a.covered, second_b.covered);
      EXPECT_EQ(rng_a.state(), rng_b.state());
      ASSERT_EQ(in_core.num_visited(), engine.num_visited());
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(in_core.visited(v), engine.visited(v)) << "vertex " << v;
      }
      const auto a = in_core.tokens();
      const auto b = engine.tokens();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
    }
  }
}

TEST(BlockEngineContract, EveryTarget) {
  // Every target from 1 to n: the covering round falls at every offset
  // within a horizon, including its first and last round and the first
  // round of the next one.
  std::vector<bool> seen_round(kBlockHorizon + 2, false);
  for (auto& [name, graph, bits] : contract_instances()) {
    if (std::string(name) == "margulis16") continue;
    SCOPED_TRACE(name);
    TempFile file(std::string("targets_") + name + ".mwg");
    write_mwg(file.path(), graph, bits);
    const BlockedGraph blocked(file.path());
    const Vertex n = graph.num_vertices();
    WalkEngineT in_core{CsrSubstrate(graph)};
    BlockWalkEngine engine(blocked, 1ull << 30);
    for (unsigned k : {2u, 8u}) {
      SCOPED_TRACE(k);
      const std::vector<Vertex> starts(k, 0);
      // One in-core walk yields every target's round: a covered run stops
      // in its covering round, so the next target continues from there.
      Rng rng_a(0x7a46e7ULL + k);
      in_core.reset(starts);
      std::uint64_t round = 0;
      for (Vertex target = 1; target <= n; ++target) {
        const CoverSample expect = in_core.run_until_visited(target, rng_a);
        ASSERT_TRUE(expect.covered);
        round += expect.steps;
        Rng rng_b(0x7a46e7ULL + k);
        engine.reset(starts);
        const CoverSample got = engine.run_until_visited(target, rng_b);
        ASSERT_EQ(round, got.steps) << "target " << target;
        ASSERT_TRUE(got.covered) << "target " << target;
        ASSERT_EQ(in_core.num_visited(), engine.num_visited())
            << "target " << target;
        if (round < seen_round.size()) seen_round[round] = true;
      }
    }
  }
  EXPECT_TRUE(seen_round[1]);
  EXPECT_TRUE(seen_round[kBlockHorizon]);
  EXPECT_TRUE(seen_round[kBlockHorizon + 1]);
}

// --- blocked estimators: the shared cover-estimate path on the block engine --

TEST(BlockedEstimators, CoverEstimateMatchesInCore) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("est_cover.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());

  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 12;
  mc.seed = 0xabcdULL;
  const McResult expect = estimate_k_cover_time(
      graph, /*start=*/0, /*k=*/8, mc, CoverOptions{}, nullptr);

  BlockWalkEngine engine(blocked, 4096);
  const McResult got =
      estimate_cover_to_target(BlockedTrials{engine}, /*start=*/0, /*k=*/8,
                               graph.num_vertices(), mc, CoverOptions{});
  EXPECT_EQ(expect.ci.count, got.ci.count);
  EXPECT_EQ(expect.ci.mean, got.ci.mean);
  EXPECT_EQ(expect.ci.half_width, got.ci.half_width);
  EXPECT_EQ(expect.censored, got.censored);
}

TEST(BlockedEstimators, SpeedupCurveMatchesInCore) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("est_curve.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  const CsrSubstrate substrate(graph);
  const auto target = static_cast<Vertex>(graph.num_vertices() * 9 / 10);
  const std::vector<unsigned> ks = {1, 2, 4, 8};

  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 8;
  mc.seed = 0x5eedULL;
  const auto expect = estimate_speedup_curve_to_target(
      substrate, 0, target, ks, mc, CoverOptions{}, nullptr);

  BlockWalkEngine engine(blocked, 1 << 14);
  const auto got = estimate_speedup_curve_to_target(
      BlockedTrials{engine}, 0, target, ks, mc, CoverOptions{});
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE(ks[i]);
    EXPECT_EQ(expect[i].k, got[i].k);
    EXPECT_EQ(expect[i].multi.ci.mean, got[i].multi.ci.mean);
    EXPECT_EQ(expect[i].speedup, got[i].speedup);
    EXPECT_EQ(expect[i].half_width, got[i].half_width);
  }
}

}  // namespace
}  // namespace manywalks
