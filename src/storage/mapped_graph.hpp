// Memory-mapped, zero-copy loader for mwg v1/v2 files (storage/mwg.hpp).
//
// MappedGraph maps the whole file read-only and exposes the targets array
// as a span pointing INTO the mapping — the adjacency is never copied to
// the heap, and the kernel pages it in on demand, so `manywalks graph
// info` on a 10^6-vertex file never faults the targets region at all. The
// offsets array and v2 block index are the O(n) copies MwgMetadata read
// at open.
//
// Lifetime/alignment rules (docs/ARCHITECTURE.md "Storage"):
//   * the mapping and the metadata live exactly as long as the
//     MappedGraph (move-only); every span, pointer, and substrate() handed
//     out dangles once it is destroyed — the same outlives-the-engine
//     contract as a Graph behind CsrSubstrate;
//   * the 64-byte header keeps the targets array 4-byte aligned in the
//     mapping (mmap bases are page-aligned), so the span is directly
//     dereferenceable;
//   * a file truncated after open leaves the metadata intact, but a read
//     of a target past the new end faults (SIGBUS): stores must not be
//     rewritten in place while mapped;
//   * files are native-endian; a foreign-endian file is rejected at load
//     via the header tag, never silently misread.
//
// Validation: loading always runs the checks MwgMetadata (storage/mwg.hpp)
// shares with BlockedGraph — the header and exact file size, then the
// structure scan of the offsets array and the v2 block index it read —
// O(n), never the targets. Validate::kDeep additionally
// checks every target is in range and every row is sorted — O(m), pages
// in the whole adjacency, and is meant for foreign files (`manywalks
// graph info --deep`), not the hot load path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "storage/mwg.hpp"

namespace manywalks {

class MappedGraph : public MwgMetadata {
 public:
  enum class Validate {
    kStructure,  ///< header + offsets scan (default; never touches targets)
    kDeep,       ///< + targets in range, rows sorted (pages in everything)
  };

  /// Maps `path` read-only and validates. Throws MwgIoError on an open/map
  /// failure and std::invalid_argument on any format failure.
  explicit MappedGraph(const std::string& path,
                       Validate validate = Validate::kStructure);

  /// Undirected edges: each self loop one edge, parallel edges separate.
  std::uint64_t num_edges() const noexcept {
    return (header_.num_arcs - header_.num_loops) / 2 + header_.num_loops;
  }
  bool is_regular() const noexcept {
    return header_.min_degree == header_.max_degree;
  }

  /// The mapped targets array — a view into the file mapping, valid only
  /// while this MappedGraph is alive.
  std::span<const Vertex> targets() const noexcept {
    return {targets_, static_cast<std::size_t>(header_.num_arcs)};
  }

  /// Binds the mapped arrays to the walk engine's CSR substrate — the
  /// exact type an in-core Graph binds through, so WalkEngineT runs
  /// zero-copy off the file with bit-identical streams.
  /// Requires min_degree >= 1 (walkable), like every substrate.
  CsrSubstrate substrate() const {
    return CsrSubstrate(offsets_.data(), targets_, num_vertices(),
                        min_degree(), max_degree());
  }

  std::uint32_t version() const noexcept { return header_.version; }

  // --- v2 block index (empty on v1 files) -----------------------------
  bool has_block_index() const noexcept { return block_bits_ > 0; }
  /// First arc of each block; num_blocks()+1 entries, last == num_arcs.
  std::span<const std::uint64_t> block_arc_begin() const noexcept {
    return block_arc_begin_;
  }
  std::span<const Vertex> block_max_degree() const noexcept {
    return block_max_degree_;
  }

 private:
  MappedGraph(const ReadOnlyFile& file, Validate validate);

  /// posix_madvise over the file bytes [byte_begin, byte_end), widened
  /// down to a page boundary. Scoped to one extent so one access pattern
  /// never reshapes another region's readahead. Best effort: failures are
  /// ignored.
  void advise(std::uint64_t byte_begin, std::uint64_t byte_end,
              int posix_advice) const noexcept;

  /// The mapping's deleter: munmap of the whole file.
  struct Unmap {
    std::uint64_t bytes;
    void operator()(void* base) const noexcept;
  };
  std::unique_ptr<void, Unmap> map_;  // the whole file, from byte 0
  const Vertex* targets_ = nullptr;
};

/// Materializes a mapped graph as an in-core Graph (copies the arrays;
/// validation as in Graph::from_csr). For callers that need Graph-only
/// algorithms (BFS starts, spectra) on a stored graph.
Graph to_graph(const MappedGraph& mapped, bool validate = true);

}  // namespace manywalks
