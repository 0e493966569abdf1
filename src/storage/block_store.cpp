#include "storage/block_store.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
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
}

void BlockedGraph::read_extent(std::uint64_t byte_begin,
                               std::uint64_t byte_end, std::byte* out) const {
  MW_REQUIRE(byte_begin < byte_end,
             "empty extent [" << byte_begin << "," << byte_end << ")");
  MW_REQUIRE(byte_end <= file_bytes_,
             "extent [" << byte_begin << "," << byte_end
                        << ") past the end of '" << path_ << "' ("
                        << file_bytes_ << " bytes)");
  file_.read_at(byte_begin, byte_end, out);
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
    return lru_.front().buffer.data.get();
  }
  const std::uint64_t bytes = byte_end - byte_begin;
  // Evict LRU extents until the new one fits the budget, then read it.
  // The new extent is never its own victim, so these are exactly the
  // victims a load-then-evict order would pick, and an empty cache takes
  // an over-budget extent anyway (it pins the cache floor). Victims move
  // to `spare` with their list and index nodes, and the first one whose
  // buffer is large enough carries the new extent: on a regular store a
  // full-cache miss allocates nothing.
  std::list<Entry> spare;
  decltype(by_begin_)::node_type index_node;
  std::uint64_t evicted = 0;
  while (!lru_.empty() && stats_.resident_bytes + bytes > budget_) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.end - victim.begin;
    ++stats_.evictions;
    ++evicted;
    if (index_node.empty()) {
      index_node = by_begin_.extract(victim.begin);
    } else {
      by_begin_.erase(victim.begin);
    }
    spare.splice(spare.end(), lru_, std::prev(lru_.end()));
  }
  auto slot = std::find_if(spare.begin(), spare.end(), [&](const Entry& e) {
    return e.buffer.capacity >= bytes;
  });
  if (slot == spare.end()) {
    slot = spare.emplace(spare.end());
    slot->buffer = {std::make_unique_for_overwrite<std::byte[]>(bytes), bytes};
  }
  graph_->read_extent(byte_begin, byte_end, slot->buffer.data.get());
  slot->begin = byte_begin;
  slot->end = byte_end;
  lru_.splice(lru_.begin(), spare, slot);
  if (index_node.empty()) {
    by_begin_.emplace(byte_begin, lru_.begin());
  } else {
    index_node.key() = byte_begin;
    index_node.mapped() = lru_.begin();
    by_begin_.insert(std::move(index_node));
  }
  ++stats_.loads;
  stats_.bytes_loaded += bytes;
  stats_.resident_bytes += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Observability: misses and evictions are cache-churn events (coarse by
  // construction — one per extent read, never per walk step). Counters
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
  return lru_.front().buffer.data.get();
}

}  // namespace manywalks
