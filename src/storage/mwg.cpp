#include "storage/mwg.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace manywalks {

namespace {

template <class T>
void write_raw(std::ofstream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

constexpr std::uint32_t byte_swap32(std::uint32_t x) noexcept {
  return ((x & 0x000000ffu) << 24) | ((x & 0x0000ff00u) << 8) |
         ((x & 0x00ff0000u) >> 8) | ((x & 0xff000000u) >> 24);
}

/// Thread-safe strerror: std::strerror's static buffer is flagged by
/// concurrency-mt-unsafe, and loads can legitimately race (e.g. a future
/// `manywalks serve` opening graphs from worker threads).
std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

/// `count` elements of T read from the file bytes starting at byte_begin.
template <class T>
std::vector<T> read_array(const ReadOnlyFile& file, std::uint64_t byte_begin,
                          std::uint64_t count) {
  std::vector<T> out(count);
  file.read_at(byte_begin, byte_begin + count * sizeof(T),
               reinterpret_cast<std::byte*>(out.data()));
  return out;
}

}  // namespace

MwgWriter::MwgWriter(std::string path, Vertex num_vertices,
                     std::uint32_t block_bits)
    : path_(std::move(path)),
      out_(path_, std::ios::binary | std::ios::trunc),
      n_(num_vertices),
      block_bits_(block_bits) {
  MW_REQUIRE(num_vertices != kInvalidVertex, "mwg vertex count too large");
  MW_REQUIRE(block_bits_ <= kMwgMaxBlockBits,
             "block_bits " << block_bits_ << " exceeds the maximum "
                           << kMwgMaxBlockBits);
  if (!out_.good()) {
    throw MwgIoError("cannot open '" + path_ + "' for writing");
  }
  offsets_.reserve(static_cast<std::size_t>(n_) + 1);
  offsets_.push_back(0);
  if (block_bits_ > 0) {
    block_max_degree_.assign(mwg_num_blocks(n_, block_bits_), 0);
  }
  // Targets stream to their final position; the header and offsets are
  // written by finish(), so an abandoned file keeps a zeroed header that
  // every loader rejects.
  out_.seekp(static_cast<std::streamoff>(mwg_targets_begin(n_)));
  if (!out_.good()) throw MwgIoError("seek failed on '" + path_ + "'");
}

void MwgWriter::append_row(std::span<const Vertex> sorted_neighbors) {
  MW_REQUIRE(!finished_, "append_row after finish()");
  MW_REQUIRE(rows_ < n_, "more rows than the declared " << n_ << " vertices");
  const Vertex v = rows_;
  Vertex prev = 0;
  for (std::size_t i = 0; i < sorted_neighbors.size(); ++i) {
    const Vertex u = sorted_neighbors[i];
    MW_REQUIRE(u < n_, "row " << v << ": neighbor " << u
                              << " out of range (n=" << n_ << ")");
    MW_REQUIRE(i == 0 || prev <= u,
               "row " << v << " not sorted ascending at position " << i);
    prev = u;
    if (u == v) ++loops_;
  }
  write_raw(out_, sorted_neighbors.data(), sorted_neighbors.size());
  // Checked per row, so a device that refuses a flush stops the writer at
  // that row instead of after every remaining row has been generated.
  if (!out_.good()) throw MwgIoError("write failed on '" + path_ + "'");
  const auto degree = static_cast<Vertex>(sorted_neighbors.size());
  min_degree_ = std::min(min_degree_, degree);
  max_degree_ = std::max(max_degree_, degree);
  if (block_bits_ > 0) {
    Vertex& block_max = block_max_degree_[v >> block_bits_];
    block_max = std::max(block_max, degree);
  }
  offsets_.push_back(offsets_.back() + degree);
  ++rows_;
}

void MwgWriter::finish() {
  MW_REQUIRE(!finished_, "finish() called twice");
  MW_REQUIRE(rows_ == n_,
             "finish() after " << rows_ << " of " << n_ << " rows");
  MwgHeader header{};
  std::memcpy(header.magic, kMwgMagic, sizeof(kMwgMagic));
  header.endian = kMwgEndianTag;
  header.version = block_bits_ > 0 ? kMwgVersionBlockIndex : kMwgVersion;
  header.num_vertices = n_;
  header.num_arcs = offsets_.back();
  header.num_loops = loops_;
  header.min_degree = n_ > 0 ? min_degree_ : 0;
  header.max_degree = max_degree_;
  header.reserved[0] = block_bits_;

  if (block_bits_ > 0) {
    // The put position sits at the end of the targets array; pad to the
    // 8-aligned index begin, then emit block_arc_begin (derived from the
    // offsets array) and the per-block max degrees.
    const std::uint64_t targets_end = mwg_file_bytes(n_, offsets_.back());
    const std::uint64_t index_begin = mwg_block_index_begin(n_, offsets_.back());
    const char pad[8] = {};
    out_.write(pad, static_cast<std::streamsize>(index_begin - targets_end));
    const std::uint64_t blocks = mwg_num_blocks(n_, block_bits_);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t first_vertex = b << block_bits_;
      write_raw(out_, &offsets_[first_vertex], 1);
    }
    write_raw(out_, &offsets_.back(), 1);
    write_raw(out_, block_max_degree_.data(), block_max_degree_.size());
  }

  out_.seekp(0);
  write_raw(out_, &header, 1);
  write_raw(out_, offsets_.data(), offsets_.size());
  out_.flush();
  if (!out_.good()) throw MwgIoError("write failed on '" + path_ + "'");
  out_.close();
  finished_ = true;
}

void write_mwg(const std::string& path, const Graph& g,
               std::uint32_t block_bits) {
  MwgWriter writer(path, g.num_vertices(), block_bits);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    writer.append_row(g.neighbors(v));
  }
  writer.finish();
}

// --- reading -----------------------------------------------------------------

ReadOnlyFile::ReadOnlyFile(const std::string& path)
    : path_(path), fd_(::open(path.c_str(), O_RDONLY)) {
  if (fd_ < 0) {
    throw MwgIoError("cannot open '" + path + "': " + errno_message(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    throw MwgIoError("cannot stat '" + path + "': " + errno_message(err));
  }
  bytes_ = static_cast<std::uint64_t>(st.st_size);
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_) {}

ReadOnlyFile& ReadOnlyFile::operator=(ReadOnlyFile&& other) noexcept {
  std::swap(path_, other.path_);
  std::swap(fd_, other.fd_);
  bytes_ = other.bytes_;
  return *this;
}

void ReadOnlyFile::read_at(std::uint64_t byte_begin, std::uint64_t byte_end,
                           std::byte* out) const {
  std::uint64_t done = 0;
  while (byte_begin + done < byte_end) {
    const ssize_t got =
        ::pread(fd_, out + done, byte_end - byte_begin - done,
                static_cast<off_t>(byte_begin + done));
    if (got > 0) {
      done += static_cast<std::uint64_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    std::string what;
    struct stat st{};
    if (got < 0) {
      what = errno_message(errno);
    } else if (::fstat(fd_, &st) == 0) {
      // End of file inside the range: the file shrank after open. Name
      // its size now, not the offset where the read stopped.
      what = "the file is now " + std::to_string(st.st_size) + " bytes";
    } else {
      what = "the file ended early";
    }
    throw MwgIoError("read of bytes [" + std::to_string(byte_begin) + "," +
                     std::to_string(byte_end) + ") of '" + path_ +
                     "' failed: " + what);
  }
}

MwgMetadata::MwgMetadata(const ReadOnlyFile& file)
    : path_(file.path()), file_bytes_(file.bytes()) {
  read_header(file);
  // The header check bounded n and the index by the file size, so these
  // reads stay inside it.
  offsets_ = read_array<std::uint64_t>(file, mwg_offsets_begin(),
                                       header_.num_vertices + 1);
  if (block_bits_ > 0) {
    const std::uint64_t index_begin =
        mwg_block_index_begin(header_.num_vertices, header_.num_arcs);
    block_arc_begin_ =
        read_array<std::uint64_t>(file, index_begin, num_blocks() + 1);
    block_max_degree_ = read_array<Vertex>(
        file, index_begin + (num_blocks() + 1) * sizeof(std::uint64_t),
        num_blocks());
  }
  check_structure();
}

std::uint64_t MwgMetadata::largest_extent_bytes() const noexcept {
  std::uint64_t largest = 0;
  for (std::size_t b = 0; b + 1 < block_arc_begin_.size(); ++b) {
    largest = std::max(largest, block_arc_begin_[b + 1] - block_arc_begin_[b]);
  }
  return largest * sizeof(Vertex);
}

void MwgMetadata::read_header(const ReadOnlyFile& file) {
  const std::uint64_t file_bytes = file.bytes();
  MW_REQUIRE(file_bytes >= kMwgHeaderBytes,
             "'" << path_ << "' is not an mwg file: " << file_bytes
                 << " bytes is smaller than the " << kMwgHeaderBytes
                 << "-byte header");
  file.read_at(0, sizeof(MwgHeader), reinterpret_cast<std::byte*>(&header_));
  MW_REQUIRE(std::memcmp(header_.magic, kMwgMagic, sizeof(kMwgMagic)) == 0,
             "'" << path_ << "' is not an mwg file (bad magic)");
  MW_REQUIRE(header_.endian != byte_swap32(kMwgEndianTag),
             "'" << path_ << "' was written on a machine with the opposite "
                 "byte order; regenerate it natively");
  MW_REQUIRE(header_.endian == kMwgEndianTag,
             "'" << path_ << "' has an unrecognized endianness tag");
  MW_REQUIRE(header_.version == kMwgVersion ||
                 header_.version == kMwgVersionBlockIndex,
             "'" << path_ << "' is mwg version " << header_.version
                 << "; this build reads versions " << kMwgVersion << " and "
                 << kMwgVersionBlockIndex);
  MW_REQUIRE(header_.num_vertices < kInvalidVertex,
             "'" << path_ << "' vertex count " << header_.num_vertices
                 << " exceeds the 32-bit vertex limit");
  // Size consistency, derived FROM the file size rather than by
  // multiplying header fields (num_arcs * 4 from a hostile header could
  // wrap modulo 2^64 and "match" a file with no adjacency at all).
  // n < 2^32 keeps mwg_targets_begin itself overflow-free.
  MW_REQUIRE(file_bytes >= mwg_targets_begin(header_.num_vertices),
             "'" << path_ << "' is truncated: " << file_bytes
                 << " bytes cannot hold the header and "
                 << header_.num_vertices + 1 << " row offsets");
  if (header_.version == kMwgVersion) {
    const std::uint64_t adjacency_bytes =
        file_bytes - mwg_targets_begin(header_.num_vertices);
    MW_REQUIRE(adjacency_bytes % sizeof(Vertex) == 0 &&
                   adjacency_bytes / sizeof(Vertex) == header_.num_arcs,
               "'" << path_ << "' is truncated or padded: header claims "
                   << header_.num_arcs << " arcs, file has "
                   << adjacency_bytes << " adjacency bytes");
    return;
  }
  // v2: the file carries a trailing block index. Bound num_arcs by the
  // file size first so mwg_file_bytes_v2 below cannot overflow on a
  // hostile header, then require the exact v2 size.
  block_bits_ = static_cast<std::uint32_t>(header_.reserved[0]);
  MW_REQUIRE(header_.reserved[0] >= 1 &&
                 header_.reserved[0] <= kMwgMaxBlockBits,
             "'" << path_ << "': v2 block_bits " << header_.reserved[0]
                 << " outside [1," << kMwgMaxBlockBits << "]");
  MW_REQUIRE(header_.reserved[1] == 0,
             "'" << path_ << "': v2 reserved field is nonzero");
  MW_REQUIRE(header_.num_arcs <= file_bytes / sizeof(Vertex),
             "'" << path_ << "' is truncated: header claims "
                 << header_.num_arcs << " arcs, file has only " << file_bytes
                 << " bytes");
  const std::uint64_t expected = mwg_file_bytes_v2(
      header_.num_vertices, header_.num_arcs, block_bits_);
  MW_REQUIRE(file_bytes == expected,
             "'" << path_ << "' is truncated or padded: a v2 file with "
                 << header_.num_arcs << " arcs and block_bits " << block_bits_
                 << " must be " << expected << " bytes, file has "
                 << file_bytes);
}

void MwgMetadata::check_structure() const {
  const std::uint64_t n = header_.num_vertices;
  MW_REQUIRE(offsets_[0] == 0, "'" << path_ << "': offsets must start at 0");
  MW_REQUIRE(offsets_[n] == header_.num_arcs,
             "'" << path_ << "': offsets end at " << offsets_[n]
                 << ", header claims " << header_.num_arcs << " arcs");
  Vertex min_deg = n > 0 ? kInvalidVertex : 0;
  Vertex max_deg = 0;
  Vertex block_max = 0;  // running max inside the current v2 block
  for (std::uint64_t v = 0; v < n; ++v) {
    MW_REQUIRE(offsets_[v] <= offsets_[v + 1],
               "'" << path_ << "': offsets not monotone at vertex " << v);
    const std::uint64_t degree = offsets_[v + 1] - offsets_[v];
    MW_REQUIRE(degree < kInvalidVertex,
               "'" << path_ << "': degree of vertex " << v << " overflows");
    min_deg = std::min(min_deg, static_cast<Vertex>(degree));
    max_deg = std::max(max_deg, static_cast<Vertex>(degree));
    if (block_bits_ > 0) {
      // Fused block-index validation: at each block's first vertex the
      // index must agree with the offsets array, and at its last vertex
      // the cached max degree must match what the scan saw.
      const std::uint64_t b = v >> block_bits_;
      if ((v & ((std::uint64_t{1} << block_bits_) - 1)) == 0) {
        MW_REQUIRE(block_arc_begin_[b] == offsets_[v],
                   "'" << path_ << "': block index claims block " << b
                       << " starts at arc " << block_arc_begin_[b]
                       << ", offsets say " << offsets_[v]);
        block_max = 0;
      }
      block_max = std::max(block_max, static_cast<Vertex>(degree));
      if (v + 1 == n || ((v + 1) >> block_bits_) != b) {
        MW_REQUIRE(block_max_degree_[b] == block_max,
                   "'" << path_ << "': block index claims block " << b
                       << " max degree " << block_max_degree_[b]
                       << ", offsets say " << block_max);
      }
    }
  }
  MW_REQUIRE(min_deg == header_.min_degree && max_deg == header_.max_degree,
             "'" << path_ << "': header degree range [" << header_.min_degree
                 << "," << header_.max_degree
                 << "] does not match the offsets array [" << min_deg << ","
                 << max_deg << "]");
  if (block_bits_ > 0) {
    MW_REQUIRE(block_arc_begin_[num_blocks()] == header_.num_arcs,
               "'" << path_ << "': block index ends at arc "
                   << block_arc_begin_[num_blocks()] << ", header claims "
                   << header_.num_arcs);
  }
}

}  // namespace manywalks
