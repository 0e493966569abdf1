// The `mwg` on-disk graph format: binary CSR with a fixed 64-byte
// header, written once and only read after.
//
// Layout (all fields in the PRODUCER's native byte order; the header's
// endianness tag lets a consumer on a foreign-endian machine reject the
// file instead of silently misreading it):
//
//   offset 0    MwgHeader            64 bytes (8-byte aligned fields)
//   offset 64   offsets[n + 1]       (n+1) x uint64  row offsets into targets
//   offset 64 + (n+1)*8
//               targets[num_arcs]    num_arcs x uint32 (Vertex) adjacency
//
// v2 appends an OPTIONAL block-index section after the targets (plus 0-4
// zero bytes of padding so the section is 8-byte aligned). Blocks are
// vertex-contiguous: with `block_bits` = B stored in header.reserved[0],
// block b covers vertices [b << B, min(n, (b+1) << B)); there are
// ceil(n / 2^B) blocks. The section is
//
//   block_arc_begin[num_blocks + 1]   uint64  first arc of each block
//                                     (== offsets[first vertex]; the last
//                                     entry is num_arcs)
//   block_max_degree[num_blocks]      uint32  max degree inside each block
//
// so an out-of-core scheduler can map block b's targets as the byte
// extent [targets_begin + 4*block_arc_begin[b],
// targets_begin + 4*block_arc_begin[b+1]) — a pure sequential read —
// and size its per-block walk buffers from the cached max degree. v1
// files (version 1, reserved[0] == 0) remain valid and loadable; the
// index is derivable, so `manywalks graph convert` upgrades them.
//
// The arrays are exactly Graph's CSR arrays (same arc conventions: a
// non-loop edge is two arcs, a self loop one; rows sorted ascending), so a
// mapped file binds to the walk engine through the same CsrSubstrate as an
// in-core Graph — zero copies, bit-identical streams. The header caches
// num_loops and min/max degree so `manywalks graph info` and substrate
// binding never have to scan the adjacency.
//
// MwgWriter is STREAMING: it needs the vertex count up front, then takes
// one adjacency row at a time and holds only the O(n) offsets array in
// memory — a generator (or an implicit substrate) can emit a graph far
// larger than an in-core CSR would allow. The header is written last, by
// finish(): a crashed or abandoned write leaves a zeroed header that every
// loader rejects, never a plausible-looking truncated graph.
//
// Reading is shared by both loaders (MappedGraph, BlockedGraph): a
// ReadOnlyFile owns the descriptor and its reads, and MwgMetadata reads
// the header, offsets and block index into memory it owns and holds the
// format's validation rules — one header and size check, one structure
// scan — so the two loaders cannot disagree about which files are valid
// or how a bad one is reported. Only MappedGraph maps the file, for its
// targets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "util/check.hpp"

namespace manywalks {

/// Environmental I/O failure on an mwg file: missing path, permission
/// denied, stat/mmap failure, a write the device refused. Distinct from
/// the std::invalid_argument that MW_REQUIRE throws for *content* problems
/// (bad magic, truncation, header lies) so callers — the CLI above all —
/// can show the message as-is without the requirement-violated
/// diagnostics prefix: these are user errors, not bugs, and need no
/// file:line breadcrumb.
class MwgIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kMwgMagic[8] = {'M', 'W', 'G', 'R', 'A', 'P', 'H', '1'};
/// Written in the producer's native order; a consumer that reads it
/// byte-swapped knows the file crossed an endianness boundary.
inline constexpr std::uint32_t kMwgEndianTag = 0x01020304u;
inline constexpr std::uint32_t kMwgVersion = 1;
/// v2 = v1 + trailing block-index section; header.reserved[0] holds
/// block_bits (1..31).
inline constexpr std::uint32_t kMwgVersionBlockIndex = 2;
inline constexpr std::size_t kMwgHeaderBytes = 64;
/// Widest legal block granularity: 2^31 vertices per block covers any
/// 32-bit vertex id in one block.
inline constexpr std::uint32_t kMwgMaxBlockBits = 31;

struct MwgHeader {
  char magic[8];               // kMwgMagic
  std::uint32_t endian;        // kMwgEndianTag, producer byte order
  std::uint32_t version;       // kMwgVersion
  std::uint64_t num_vertices;  // n (fits Vertex)
  std::uint64_t num_arcs;      // adjacency entries (2*edges - loops)
  std::uint64_t num_loops;     // self-loop arcs
  std::uint32_t min_degree;    // cached degree extremes (0 for n == 0)
  std::uint32_t max_degree;
  std::uint64_t reserved[2];   // v1: zero; v2: reserved[0] = block_bits
};
static_assert(sizeof(MwgHeader) == kMwgHeaderBytes);
static_assert(std::is_trivially_copyable_v<MwgHeader>);

/// Byte offset of the offsets array (== header size).
constexpr std::uint64_t mwg_offsets_begin() noexcept { return kMwgHeaderBytes; }

/// Byte offset of the targets array for an n-vertex file.
constexpr std::uint64_t mwg_targets_begin(std::uint64_t n) noexcept {
  return kMwgHeaderBytes + (n + 1) * sizeof(std::uint64_t);
}

/// Total file size for an (n, num_arcs) v1 graph.
constexpr std::uint64_t mwg_file_bytes(std::uint64_t n,
                                       std::uint64_t num_arcs) noexcept {
  return mwg_targets_begin(n) + num_arcs * sizeof(Vertex);
}

/// Rounds up to the next multiple of 8 (block-index alignment).
constexpr std::uint64_t mwg_align8(std::uint64_t x) noexcept {
  return (x + 7) & ~std::uint64_t{7};
}

/// Number of vertex blocks for an n-vertex graph at 2^block_bits
/// vertices per block.
constexpr std::uint64_t mwg_num_blocks(std::uint64_t n,
                                       std::uint32_t block_bits) noexcept {
  return n == 0 ? 0 : ((n - 1) >> block_bits) + 1;
}

/// Byte offset of the v2 block-index section (8-aligned, directly after
/// the targets array).
constexpr std::uint64_t mwg_block_index_begin(std::uint64_t n,
                                              std::uint64_t num_arcs) noexcept {
  return mwg_align8(mwg_file_bytes(n, num_arcs));
}

/// Total file size for an (n, num_arcs) v2 graph at block_bits.
constexpr std::uint64_t mwg_file_bytes_v2(std::uint64_t n,
                                          std::uint64_t num_arcs,
                                          std::uint32_t block_bits) noexcept {
  const std::uint64_t blocks = mwg_num_blocks(n, block_bits);
  return mwg_block_index_begin(n, num_arcs) +
         (blocks + 1) * sizeof(std::uint64_t) + blocks * sizeof(Vertex);
}

/// Default block granularity for an n-vertex graph: the smallest
/// block_bits >= 12 (4096-vertex blocks) that keeps the index at or
/// under 1024 blocks — small graphs get one block, huge graphs get
/// proportionally larger blocks so the index stays tiny.
constexpr std::uint32_t mwg_default_block_bits(std::uint64_t n) noexcept {
  std::uint32_t bits = 12;
  while (bits < kMwgMaxBlockBits && mwg_num_blocks(n, bits) > 1024) ++bits;
  return bits;
}

/// Streams one graph into an mwg file: construct with the vertex count,
/// append every row in vertex order (sorted ascending, like Graph rows),
/// then finish(). Holds only the offsets array (O(n)) in memory.
///
/// `block_bits` == 0 writes a v1 file (no block index — byte-identical
/// to the historical format); 1..kMwgMaxBlockBits writes a v2 file with
/// a block index at that granularity.
class MwgWriter {
 public:
  MwgWriter(std::string path, Vertex num_vertices,
            std::uint32_t block_bits = 0);

  MwgWriter(const MwgWriter&) = delete;
  MwgWriter& operator=(const MwgWriter&) = delete;

  /// Appends the adjacency row of the next vertex (rows_appended() so
  /// far). Neighbors must be sorted ascending — the CSR row order every
  /// substrate binding and golden stream is defined against. Throws
  /// MwgIoError, with the row not counted, if the stream has failed (a
  /// full device refuses the buffer flush this row's write triggered).
  void append_row(std::span<const Vertex> sorted_neighbors);

  /// Writes the offsets array and the header, and closes the file. Must be
  /// called after exactly num_vertices() rows; throws MwgIoError if the
  /// stream failed anywhere along the way (e.g. a full device).
  void finish();

  Vertex num_vertices() const noexcept { return n_; }
  Vertex rows_appended() const noexcept { return rows_; }
  std::uint64_t arcs_appended() const noexcept { return offsets_.back(); }
  std::uint32_t block_bits() const noexcept { return block_bits_; }

 private:
  std::string path_;
  std::ofstream out_;
  Vertex n_;
  std::uint32_t block_bits_;  // 0 = v1, no block index
  Vertex rows_ = 0;
  std::vector<std::uint64_t> offsets_;  // cumulative; offsets_[rows_] is next
  std::vector<Vertex> block_max_degree_;  // v2 only; per-block running max
  std::uint64_t loops_ = 0;
  Vertex min_degree_ = kInvalidVertex;
  Vertex max_degree_ = 0;
  bool finished_ = false;
};

/// Writes an in-core Graph to `path`; block_bits == 0 gives mwg v1.
void write_mwg(const std::string& path, const Graph& g,
               std::uint32_t block_bits = 0);

/// Writes any substrate to `path` by enumerating its rows — the way to
/// produce an mwg file bigger than an in-core CSR could be (e.g. a 10^7
/// cycle straight from CycleSubstrate). Rows whose substrate enumeration
/// is not ascending (the hypercube's bit order) are sorted per row, so the
/// file always matches the canonical CSR of the same graph.
template <Substrate S>
void write_mwg(const std::string& path, const S& substrate,
               std::uint32_t block_bits = 0) {
  const Vertex n = substrate.num_vertices();
  MwgWriter writer(path, n, block_bits);
  std::vector<Vertex> row;
  for (Vertex v = 0; v < n; ++v) {
    const Vertex degree = substrate.degree(v);
    row.resize(degree);
    for (Vertex i = 0; i < degree; ++i) row[i] = substrate.neighbor(v, i);
    std::sort(row.begin(), row.end());
    writer.append_row(row);
  }
  writer.finish();
}

// --- reading -----------------------------------------------------------------

/// `path` opened read-only, with its size at open: the one owner of a
/// reader's file descriptor. Move-only RAII. Throws MwgIoError when the
/// path cannot be opened or stat'ed.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path);
  ~ReadOnlyFile();

  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  int fd() const noexcept { return fd_; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  const std::string& path() const noexcept { return path_; }

  /// Reads the bytes [byte_begin, byte_end) into `out` with pread,
  /// retrying on EINTR and continuing partial reads. Throws MwgIoError
  /// naming the path and the byte range when a read fails, or when the
  /// file ends first (it was truncated after open) — then with the
  /// file's current size.
  void read_at(std::uint64_t byte_begin, std::uint64_t byte_end,
               std::byte* out) const;

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
};

/// What both loaders keep of an open mwg file: its path and size, the
/// validated header, and the offsets array and v2 block index, read into
/// vectors this class owns. MappedGraph and BlockedGraph derive from it,
/// so the format's rules are checked in one place: the constructor checks
/// the header and the file size, reads the metadata and scans it. A
/// violated rule throws std::invalid_argument naming the file and the
/// rule. The metadata is memory of its own, so a file that changes after
/// open never changes (or faults) an offset or index lookup.
class MwgMetadata {
 public:
  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(header_.num_vertices);
  }
  std::uint64_t num_arcs() const noexcept { return header_.num_arcs; }
  std::uint64_t num_loops() const noexcept { return header_.num_loops; }
  Vertex min_degree() const noexcept { return header_.min_degree; }
  Vertex max_degree() const noexcept { return header_.max_degree; }
  Vertex degree(Vertex v) const noexcept {
    return static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
  }
  /// The offsets array (n+1 entries) — valid while the loader is alive.
  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }

  /// 0 on v1 files (no block index).
  std::uint32_t block_bits() const noexcept { return block_bits_; }
  std::uint64_t num_blocks() const noexcept {
    return block_bits_ > 0 ? mwg_num_blocks(header_.num_vertices, block_bits_)
                           : 0;
  }
  /// Bytes of the largest block's targets extent: what an out-of-core
  /// run's extent cache holds at least, whatever its budget. 0 on v1.
  std::uint64_t largest_extent_bytes() const noexcept;

  const std::string& path() const noexcept { return path_; }
  std::uint64_t file_bytes() const noexcept { return file_bytes_; }

 protected:
  /// Reads and validates the header, the offsets array and, on v2, the
  /// block index of `file`. O(n); never reads the targets.
  explicit MwgMetadata(const ReadOnlyFile& file);

  std::string path_;
  std::uint64_t file_bytes_ = 0;
  MwgHeader header_{};
  std::uint32_t block_bits_ = 0;  // 0 = v1, no block index
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> block_arc_begin_;  // v2: num_blocks() + 1
  std::vector<Vertex> block_max_degree_;        // v2: num_blocks()

 private:
  /// Reads the header and checks magic, endianness tag, version, the
  /// 32-bit vertex limit, the v2 block_bits and reserved field, and the
  /// exact file size — derived from the file, so a hostile header cannot
  /// overflow the arithmetic (or size the reads below past the file).
  void read_header(const ReadOnlyFile& file);

  /// Structure scan: offsets start at 0, end at num_arcs and never
  /// decrease; the degree range matches the header; every block-index
  /// entry matches the offsets.
  void check_structure() const;
};

}  // namespace manywalks
