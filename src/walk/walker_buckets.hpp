// Walker→block buckets of the out-of-core engine.
//
// One FIFO bucket per vertex block, linked through a per-lane `next`
// array (nothing is allocated after reset), plus a bitmap of the blocks
// whose bucket is non-empty. The block engine sweeps those blocks in
// ascending id order — one sweep is a pass — and drains each bucket in
// arrival order. A walker that leaves block b for block b' is pushed onto
// b''s bucket: if b' > b the same pass still reaches it, otherwise it
// waits for the next pass. Nothing is re-sorted between passes.
//
// Both orders are pure functions of the walker trajectories (no hashes,
// no pointers, no timing), which is what makes the whole block schedule
// deterministic (contract v4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace manywalks {

class WalkerBuckets {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffU;

  /// Empties every bucket and sizes the buckets for `num_blocks` blocks
  /// and lane ids below `num_lanes`.
  void reset(std::uint64_t num_blocks, std::size_t num_lanes);

  /// Appends `lane` to the tail of `block`'s bucket. A lane sits in at
  /// most one bucket at a time.
  void push(std::uint32_t block, std::uint32_t lane) {
    next_[lane] = kNone;
    if (head_[block] == kNone) {
      head_[block] = lane;
      occupied_[block >> 6] |= std::uint64_t{1} << (block & 63);
    } else {
      next_[tail_[block]] = lane;
    }
    tail_[block] = lane;
  }

  /// The smallest block id >= `from` with a non-empty bucket, or kNone.
  std::uint32_t next_block(std::uint32_t from) const;

  /// Empties `block`'s bucket, calling visit(lane) on its lanes in arrival
  /// order, and returns how many there were. `visit` may push the lane it
  /// is given onto another block's bucket.
  template <class Visit>
  std::uint32_t drain(std::uint32_t block, Visit&& visit) {
    std::uint32_t lane = head_[block];
    head_[block] = kNone;
    occupied_[block >> 6] &= ~(std::uint64_t{1} << (block & 63));
    std::uint32_t drained = 0;
    while (lane != kNone) {
      const std::uint32_t after = next_[lane];  // push() rewrites next_[lane]
      ++drained;
      visit(lane);
      lane = after;
    }
    return drained;
  }

  /// True when no bucket holds a lane.
  bool empty() const { return next_block(0) == kNone; }

 private:
  std::vector<std::uint32_t> head_;      // first lane per block, or kNone
  std::vector<std::uint32_t> tail_;      // last lane per block, if any
  std::vector<std::uint32_t> next_;      // next lane in the same bucket
  std::vector<std::uint64_t> occupied_;  // bit b: block b's bucket non-empty
};

}  // namespace manywalks
