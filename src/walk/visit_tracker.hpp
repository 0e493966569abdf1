// Visited-set scratch of the walk engines: one bit per vertex, plus the
// per-executor bitmaps of the sharded epoch driver.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace manywalks {

/// Word-level (one bit per vertex) visited set for the batched walk engine.
///
/// The whole scratch for a 64k-vertex graph is 8 KiB and stays L1-resident
/// while the walk's visit pattern hops randomly across vertices. reset() is
/// an O(n/64) word fill — negligible next to any cover-time trial, which
/// takes Ω(n) steps on every graph.
class WordVisitTracker {
 public:
  explicit WordVisitTracker(Vertex num_vertices)
      : words_((static_cast<std::size_t>(num_vertices) + 63) / 64, 0),
        num_vertices_(num_vertices) {}

  void reset() {
    std::fill(words_.begin(), words_.end(), 0);
    num_visited_ = 0;
  }

  /// Marks v visited; returns true on first visit. The already-visited
  /// case (dominant late in a cover trial) takes no store at all, so
  /// clustered tokens never serialize on read-modify-writes of a shared
  /// word.
  bool visit(Vertex v) {
    std::uint64_t& word = words_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++num_visited_;
    return true;
  }

  bool visited(Vertex v) const {
    return ((words_[v >> 6] >> (v & 63)) & 1) != 0;
  }

  Vertex num_visited() const { return num_visited_; }
  Vertex num_vertices() const { return num_vertices_; }

 private:
  // The engines' inner loops keep the word pointer and visit counter in
  // registers (member updates through `this` would force a reload after
  // every store) and sync num_visited_ back on exit.
  template <class S>
  friend class WalkEngineT;
  friend class BlockWalkEngine;
  std::uint64_t* words() { return words_.data(); }
  void set_num_visited(Vertex n) { num_visited_ = n; }

  std::vector<std::uint64_t> words_;
  Vertex num_vertices_;
  Vertex num_visited_ = 0;
};

/// Per-executor word bitmaps plus a ping-pong pair of union buffers: the
/// visited-set scratch of the sharded epoch driver (determinism contract
/// v3, docs/ARCHITECTURE.md). Each executor of the worker team owns one
/// bitmap and commits the visits of all its lane shards into it (reusing
/// the serial lane kernels — a bitmap's words pointer is bit-compatible
/// with WordVisitTracker's), so an epoch of rounds shares no mutable state
/// between executors. Bitmaps are cumulative over a run; a bit in one means
/// "new to that executor" only, and no per-bitmap count is kept.
///
/// After each epoch, merge_range(from, ...) writes
/// `union[from ^ 1] = union[from] | OR_e bitmap[e]` over a word range and
/// returns its popcount. Disjoint ranges may run concurrently, and the
/// full-range sum of the returns is the exact union size. The source
/// buffer is left intact, so if the epoch crossed the cover target the
/// caller still holds the visited set as of the epoch's start.
///
/// union(0) is also the seed channel: reset() preloads the engine's pre-run
/// visited set (the starts, or earlier chunked runs).
class ShardedVisitTracker {
 public:
  ShardedVisitTracker(Vertex num_vertices, unsigned num_executors)
      : words_per_bitmap_((static_cast<std::size_t>(num_vertices) + 63) / 64),
        num_executors_(num_executors),
        executor_words_(words_per_bitmap_ * num_executors),
        unions_(2 * words_per_bitmap_) {}

  /// Clears every executor bitmap and preloads union(0) with `words`.
  void reset(const std::uint64_t* words) {
    std::fill(executor_words_.begin(), executor_words_.end(), 0);
    std::copy(words, words + words_per_bitmap_, unions_.begin());
  }

  unsigned num_executors() const noexcept { return num_executors_; }
  std::size_t words_per_bitmap() const noexcept { return words_per_bitmap_; }

  /// Executor e's bitmap — handed to the lane round kernels of every shard
  /// e runs as their `words` scratch. Only executor e may write it within
  /// an epoch.
  std::uint64_t* executor_words(unsigned e) {
    return executor_words_.data() +
           static_cast<std::size_t>(e) * words_per_bitmap_;
  }

  /// Commits v into executor e's bitmap; true iff the bit was new TO IT.
  bool visit(unsigned e, Vertex v) {
    std::uint64_t& word = executor_words(e)[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// Union buffer `which` (0 or 1).
  const std::uint64_t* union_words(unsigned which) const noexcept {
    return unions_.data() + static_cast<std::size_t>(which) * words_per_bitmap_;
  }

  /// ORs union(from) and every executor's words in [word_begin, word_end)
  /// into union(from ^ 1) and returns the popcount of that range.
  Vertex merge_range(unsigned from, std::size_t word_begin,
                     std::size_t word_end) {
    const std::uint64_t* const before = union_words(from);
    std::uint64_t* const after =
        unions_.data() + static_cast<std::size_t>(from ^ 1) * words_per_bitmap_;
    Vertex count = 0;
    for (std::size_t w = word_begin; w < word_end; ++w) {
      std::uint64_t word = before[w];
      for (unsigned e = 0; e < num_executors_; ++e) {
        word |= executor_words(e)[w];
      }
      after[w] = word;
      count += static_cast<Vertex>(std::popcount(word));
    }
    return count;
  }

 private:
  std::size_t words_per_bitmap_;
  unsigned num_executors_;
  std::vector<std::uint64_t> executor_words_;
  std::vector<std::uint64_t> unions_;
};

}  // namespace manywalks
