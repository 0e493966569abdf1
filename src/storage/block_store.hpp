// Out-of-core access to mwg v2 files: a metadata-resident graph handle
// and an LRU extent cache with an explicit byte budget.
//
// MappedGraph (mapped_graph.hpp) maps the WHOLE file and trusts the page
// cache; once the CSR outgrows memory the walk hot path degenerates to
// random 4 KB faults. BlockedGraph instead maps nothing: it keeps the
// metadata MwgMetadata read at open (header, offsets array, v2 block
// index) and hands out adjacency as explicit extents:
//
//   * `read_extent(byte_begin, byte_end, out)` reads one file extent into
//     a caller-owned buffer with one sequential pread — no mapping, no
//     page faults, no page-cache advice;
//   * `ExtentCache` keeps an LRU of extents read into buffers it owns,
//     bounded by an explicit byte budget (`--mem-budget`), so the
//     resident set is a scheduling decision, not a page-cache accident.
//     At least one extent stays resident even when it alone exceeds the
//     budget. A miss evicts first and reads into a victim's buffer when
//     it is large enough, so a full cache allocates nothing per load.
//
// BlockedGraph validates a file exactly as MappedGraph does — both run
// MwgMetadata's header check and structure scan — and adds only the
// requirement of a v2 block index. A store truncated after open keeps
// every metadata lookup working; only the extent reads past the new end
// fail, with MwgIoError.
//
// The budget shapes ONLY eviction — never which extents are requested in
// what order — which is what keeps the block engine's schedule (and so
// its streams) budget-invariant (determinism contract v4, see
// docs/ARCHITECTURE.md "Out-of-core scheduling").
//
// All mmap/madvise and pread calls in the tree live in src/storage/ —
// consumers (the block engine, benches) go through this API, enforced by
// the manywalks-lint rule `manywalks-mmap-outside-storage`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "storage/mwg.hpp"

namespace manywalks {

/// Metadata-resident handle on an mwg v2 file: the header, offsets array
/// and block index in memory, the adjacency region read on demand through
/// read_extent / ExtentCache — nothing is mapped. Rejects v1 files (no
/// block index to schedule by) with an upgrade hint.
class BlockedGraph : public MwgMetadata {
 public:
  explicit BlockedGraph(const std::string& path);

  // --- block geometry -------------------------------------------------
  std::uint64_t block_of(Vertex v) const noexcept { return v >> block_bits_; }
  Vertex block_first_vertex(std::uint64_t b) const noexcept {
    return static_cast<Vertex>(b << block_bits_);
  }
  std::uint64_t block_arc_begin(std::uint64_t b) const noexcept {
    return block_arc_begin_[b];
  }
  Vertex block_max_degree(std::uint64_t b) const noexcept {
    return block_max_degree_[b];
  }

  // --- file extents ---------------------------------------------------
  std::uint64_t targets_byte_begin() const noexcept {
    return mwg_targets_begin(header_.num_vertices);
  }
  /// Byte extent of arc `a`'s target word.
  std::uint64_t arc_byte(std::uint64_t a) const noexcept {
    return targets_byte_begin() + a * sizeof(Vertex);
  }
  /// Byte extent holding block b's slice of the targets array.
  std::uint64_t block_byte_begin(std::uint64_t b) const noexcept {
    return arc_byte(block_arc_begin_[b]);
  }
  std::uint64_t block_byte_end(std::uint64_t b) const noexcept {
    return arc_byte(block_arc_begin_[b + 1]);
  }

  /// Reads the file extent [byte_begin, byte_end) into `out` (room for
  /// byte_end - byte_begin bytes) with one pread, retried on EINTR.
  /// Throws MwgIoError naming the path and the byte range when the read
  /// fails or comes up short (a file truncated after open).
  void read_extent(std::uint64_t byte_begin, std::uint64_t byte_end,
                   std::byte* out) const;

 private:
  explicit BlockedGraph(ReadOnlyFile file);

  ReadOnlyFile file_;
};

/// LRU cache of extents, read into buffers the cache owns, bounded by an
/// explicit byte budget. The budget counts requested extent bytes; a miss
/// first evicts the least-recently-acquired extents until the new one
/// fits, then reads it — into an evicted extent's buffer when one is
/// large enough, into a new buffer otherwise. The most recent extent
/// always stays resident (a single extent larger than the budget still
/// loads — it just evicts everything else).
///
/// Pointers returned by acquire() are valid until a LATER acquire()
/// evicts that extent; the block engine's contract is to finish with a
/// block's pointer before acquiring the next block.
class ExtentCache {
 public:
  struct Stats {
    std::uint64_t loads = 0;       ///< extents read (cache misses)
    std::uint64_t hits = 0;        ///< acquires served resident
    std::uint64_t evictions = 0;   ///< extents dropped for budget
    std::uint64_t bytes_loaded = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t peak_resident_bytes = 0;
  };

  ExtentCache(const BlockedGraph& graph, std::uint64_t budget_bytes);

  /// The extent's first byte, reading it on miss (after evicting LRU
  /// extents past the budget). A given byte_begin must always be paired
  /// with the same byte_end. Throws MwgIoError when the read fails.
  const std::byte* acquire(std::uint64_t byte_begin, std::uint64_t byte_end);

  std::uint64_t budget_bytes() const noexcept { return budget_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Zeroes the traffic counters (loads/hits/evictions/bytes_loaded) so
  /// callers can attribute cache behavior to one phase or trial. Residency
  /// is real state, not a counter: resident_bytes is kept and the peak
  /// restarts from it.
  void reset_stats() noexcept {
    const std::uint64_t resident = stats_.resident_bytes;
    stats_ = Stats{};
    stats_.resident_bytes = resident;
    stats_.peak_resident_bytes = resident;
  }

 private:
  /// An owned read buffer; capacity may exceed the extent it holds.
  struct Buffer {
    std::unique_ptr<std::byte[]> data;
    std::uint64_t capacity = 0;
  };
  struct Entry {
    std::uint64_t begin;
    std::uint64_t end;
    Buffer buffer;
  };

  const BlockedGraph* graph_;
  std::uint64_t budget_;
  std::list<Entry> lru_;  // front = most recently acquired
  std::map<std::uint64_t, std::list<Entry>::iterator> by_begin_;
  Stats stats_;
};

}  // namespace manywalks
