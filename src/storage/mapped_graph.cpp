#include "storage/mapped_graph.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <system_error>
#include <vector>

#include "util/check.hpp"

namespace manywalks {

MappedGraph::MappedGraph(const std::string& path, Validate validate)
    : MappedGraph(ReadOnlyFile(path), validate) {}

// The descriptor closes when the delegating constructor returns; the
// mapping keeps its own reference to the file.
MappedGraph::MappedGraph(const ReadOnlyFile& file, Validate validate)
    : MwgMetadata(file) {
  void* base =
      ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, file.fd(), 0);
  if (base == MAP_FAILED) {
    const std::error_code err(errno, std::generic_category());
    throw MwgIoError("mmap of '" + path_ + "' failed: " + err.message());
  }
  map_ = {base, Unmap{file_bytes_}};
  const std::uint64_t targets_byte_begin =
      mwg_targets_begin(header_.num_vertices);
  const std::uint64_t targets_byte_end =
      targets_byte_begin + header_.num_arcs * sizeof(Vertex);
  targets_ = reinterpret_cast<const Vertex*>(
      static_cast<const std::byte*>(base) + targets_byte_begin);
  if (validate == Validate::kDeep) {
    // The deep scan walks the adjacency region front to back; let the
    // kernel read ahead aggressively for this one pass.
    advise(targets_byte_begin, targets_byte_end, POSIX_MADV_SEQUENTIAL);
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
  // to waste read-ahead on sequential speculation.
  advise(targets_byte_begin, targets_byte_end, POSIX_MADV_RANDOM);
}

void MappedGraph::advise(std::uint64_t byte_begin, std::uint64_t byte_end,
                         int posix_advice) const noexcept {
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  byte_begin = (byte_begin / page) * page;
  if (byte_begin >= byte_end) return;
  ::posix_madvise(static_cast<char*>(map_.get()) + byte_begin,
                  byte_end - byte_begin, posix_advice);
}

void MappedGraph::Unmap::operator()(void* base) const noexcept {
  ::munmap(base, bytes);
}

Graph to_graph(const MappedGraph& mapped, bool validate) {
  const auto offsets = mapped.offsets();
  const auto targets = mapped.targets();
  return Graph::from_csr(
      std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
      std::vector<Vertex>(targets.begin(), targets.end()), validate);
}

}  // namespace manywalks
