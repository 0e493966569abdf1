#include "storage/block_store.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace manywalks {

// --- BlockedGraph -----------------------------------------------------

BlockedGraph::BlockedGraph(const std::string& path)
    : BlockedGraph(ReadOnlyFile(path)) {}

BlockedGraph::BlockedGraph(ReadOnlyFile file)
    : MwgMetadata(file), file_(std::move(file)) {
  MW_REQUIRE(header_.version == kMwgVersionBlockIndex,
             "'" << path_ << "' is mwg version " << header_.version
                 << "; out-of-core block scheduling needs the v2 block "
                    "index — upgrade with `manywalks graph convert --in="
                 << path_ << " --out=...`");
  // Metadata mapping 1: header + offsets (never the targets).
  meta_ = MappedExtent(file_, 0, mwg_targets_begin(header_.num_vertices));
  offsets_ = reinterpret_cast<const std::uint64_t*>(meta_.data() +
                                                    mwg_offsets_begin());
  // Metadata mapping 2: the tail block index.
  index_ = MappedExtent(
      file_, mwg_block_index_begin(header_.num_vertices, header_.num_arcs),
      file_bytes_);
  block_arc_begin_ = reinterpret_cast<const std::uint64_t*>(index_.data());
  block_max_degree_ = reinterpret_cast<const Vertex*>(
      index_.data() + (num_blocks() + 1) * sizeof(std::uint64_t));
  // Structure scan over the resident metadata — never the (unmapped)
  // targets.
  check_structure();
}

MappedExtent BlockedGraph::map_extent(std::uint64_t byte_begin,
                                      std::uint64_t byte_end) const {
  MW_REQUIRE(byte_end <= file_bytes_,
             "extent [" << byte_begin << "," << byte_end
                        << ") past the end of '" << path_ << "' ("
                        << file_bytes_ << " bytes)");
  MappedExtent extent(file_, byte_begin, byte_end);
  // One extent = one sequential read: prefetch the whole range now so the
  // block's walkers hit warm pages instead of faulting one by one.
  extent.advise(0, byte_end - byte_begin, POSIX_MADV_WILLNEED);
  return extent;
}

// --- ExtentCache ------------------------------------------------------

ExtentCache::ExtentCache(const BlockedGraph& graph, std::uint64_t budget_bytes)
    : graph_(&graph), budget_(budget_bytes) {
  MW_REQUIRE(budget_ > 0, "extent-cache budget must be positive");
}

const std::byte* ExtentCache::acquire(std::uint64_t byte_begin,
                                      std::uint64_t byte_end) {
  const auto it = by_begin_.find(byte_begin);
  if (it != by_begin_.end()) {
    MW_REQUIRE(it->second->end == byte_end,
               "extent at " << byte_begin << " re-acquired with end "
                            << byte_end << " != cached " << it->second->end);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    if (obs::RunObserver* const o = obs::observer();
        o != nullptr && o->metrics != nullptr) {
      obs::thread_counters().add(obs::Metric::kCacheHits, 1);
    }
    return lru_.front().extent.data();
  }
  lru_.push_front(
      Entry{byte_begin, byte_end, graph_->map_extent(byte_begin, byte_end)});
  by_begin_.emplace(byte_begin, lru_.begin());
  const std::uint64_t bytes = byte_end - byte_begin;
  ++stats_.loads;
  stats_.bytes_loaded += bytes;
  stats_.resident_bytes += bytes;
  // Evict LRU extents past the budget, but never the one just acquired:
  // a single over-budget extent still loads (and pins the cache floor).
  std::uint64_t evicted = 0;
  while (stats_.resident_bytes > budget_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.end - victim.begin;
    ++stats_.evictions;
    ++evicted;
    by_begin_.erase(victim.begin);
    lru_.pop_back();
  }
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Observability: misses and evictions are cache-churn events (coarse by
  // construction — one per extent mapped, never per walk step). Counters
  // go to the calling thread's scratch; trace events go straight to the
  // (mutex-protected) writer.
  if (obs::RunObserver* const o = obs::observer(); o != nullptr) {
    if (o->metrics != nullptr) {
      obs::WorkerCounters& scratch = obs::thread_counters();
      scratch.add(obs::Metric::kCacheLoads, 1);
      scratch.add(obs::Metric::kCacheBytesLoaded, bytes);
      scratch.add(obs::Metric::kCacheEvictions, evicted);
    }
    if (o->trace != nullptr) {
      std::string args = "\"begin\":" + std::to_string(byte_begin) +
                         ",\"bytes\":" + std::to_string(bytes);
      if (evicted > 0) args += ",\"evicted\":" + std::to_string(evicted);
      o->trace->instant("extent-load", "cache", 0, std::move(args));
    }
  }
  return lru_.front().extent.data();
}

}  // namespace manywalks
