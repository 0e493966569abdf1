#include "walk/walker_buckets.hpp"

#include <bit>

namespace manywalks {

void WalkerBuckets::reset(std::uint64_t num_blocks, std::size_t num_lanes) {
  head_.assign(num_blocks, kNone);
  tail_.resize(num_blocks);
  next_.resize(num_lanes);
  occupied_.assign((num_blocks + 63) / 64, 0);
}

std::uint32_t WalkerBuckets::next_block(std::uint32_t from) const {
  std::size_t word = from >> 6;
  if (word >= occupied_.size()) return kNone;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++word == occupied_.size()) return kNone;
    bits = occupied_[word];
  }
  return static_cast<std::uint32_t>(word * 64) +
         static_cast<std::uint32_t>(std::countr_zero(bits));
}

}  // namespace manywalks
