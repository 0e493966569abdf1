#include "storage/mapped_graph.hpp"

#include <sys/mman.h>

#include <vector>

#include "util/check.hpp"

namespace manywalks {

MappedGraph::MappedGraph(const std::string& path, Validate validate)
    : MappedGraph(ReadOnlyFile(path), validate) {}

// The descriptor closes when the delegating constructor returns; the
// mapping keeps its own reference to the file.
MappedGraph::MappedGraph(const ReadOnlyFile& file, Validate validate)
    : MwgMetadata(file), map_(file, 0, file.bytes()) {
  const std::byte* bytes = map_.data();
  offsets_ =
      reinterpret_cast<const std::uint64_t*>(bytes + mwg_offsets_begin());
  targets_ = reinterpret_cast<const Vertex*>(
      bytes + mwg_targets_begin(header_.num_vertices));
  if (block_bits_ > 0) {
    const std::uint64_t index_begin =
        mwg_block_index_begin(header_.num_vertices, header_.num_arcs);
    block_arc_begin_ =
        reinterpret_cast<const std::uint64_t*>(bytes + index_begin);
    block_max_degree_ = reinterpret_cast<const Vertex*>(
        bytes + index_begin + (num_blocks() + 1) * sizeof(std::uint64_t));
  }
  check_structure();

  const std::uint64_t targets_byte_begin =
      mwg_targets_begin(header_.num_vertices);
  const std::uint64_t targets_byte_end =
      targets_byte_begin + header_.num_arcs * sizeof(Vertex);
  if (validate == Validate::kDeep) {
    // The deep scan walks the adjacency region front to back; let the
    // kernel read ahead aggressively for this one pass. Advice is
    // scoped to the targets extent — a mapping-wide flip would also
    // reshape the offsets/index pages other subsystems (the block
    // scheduler above all) rely on streaming sequentially.
    advise(targets_byte_begin, targets_byte_end, ExtentAdvice::kSequential);
    const std::uint64_t n = header_.num_vertices;
    std::uint64_t loops = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      for (std::uint64_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
        const Vertex u = targets_[a];
        MW_REQUIRE(u < n, "'" << path_ << "': target " << u
                              << " out of range in row " << v);
        MW_REQUIRE(a == offsets_[v] || targets_[a - 1] <= u,
                   "'" << path_ << "': row " << v << " not sorted");
        if (u == v) ++loops;
      }
    }
    MW_REQUIRE(loops == header_.num_loops,
               "'" << path_ << "': header claims " << header_.num_loops
                   << " loops, adjacency has " << loops);
  }

  // The walk hot path touches arcs in random order; tell the kernel not
  // to waste read-ahead on sequential speculation. Scoped to the targets
  // extent: the offsets (and v2 block index) are scanned linearly and
  // keep default readahead.
  advise(targets_byte_begin, targets_byte_end, ExtentAdvice::kRandom);
}

void MappedGraph::advise(std::uint64_t byte_begin, std::uint64_t byte_end,
                         ExtentAdvice advice) const noexcept {
  map_.advise(byte_begin, byte_end,
              advice == ExtentAdvice::kRandom ? POSIX_MADV_RANDOM
                                              : POSIX_MADV_SEQUENTIAL);
}

Graph to_graph(const MappedGraph& mapped, bool validate) {
  const auto offsets = mapped.offsets();
  const auto targets = mapped.targets();
  return Graph::from_csr(
      std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
      std::vector<Vertex>(targets.begin(), targets.end()), validate);
}

}  // namespace manywalks
