// Pseudo-random number generation for Monte-Carlo walk simulation.
//
// The inner loop of every experiment in this library is "pick a uniformly
// random neighbor", so the generator must be fast, high quality, and support
// cheap independent streams so that trial i of a Monte-Carlo estimate is
// reproducible regardless of how trials are scheduled across threads.
//
// We implement:
//   * SplitMix64  — tiny 64-bit generator, used for seeding and hashing.
//   * Xoshiro256PlusPlus — the main generator (Blackman & Vigna), with
//     jump() / long_jump() for 2^128 / 2^192 step stream separation.
//   * Lemire's nearly-divisionless bounded sampling (uniform_below, plus
//     the full-word uniform_below_wide used by the lane walk kernels).
//   * LaneRngs — a bank of per-lane streams derived from one master seed,
//     the basis of the walk engine's sampling (determinism contract v5,
//     docs/ARCHITECTURE.md).
//
// This header is the only place allowed to construct raw generators: the
// manywalks-raw-rng lint rule (tools/lint/manywalks_lint.py) rejects
// std::mt19937 / rand() / std::random_device everywhere else, so all
// randomness flows through these seeded, stream-separable types.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

namespace manywalks {

/// SplitMix64: statistically strong 64-bit mixer. Primarily used to expand a
/// single user seed into full generator state and to derive per-trial seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Returns the next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// Stateless one-shot mix of a 64-bit value; handy for combining seeds
/// (e.g. `mix64(master_seed ^ trial_index)`).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return SplitMix64(x).next();
}

/// xoshiro256++ (Blackman & Vigna, 2019). Period 2^256 - 1. This is the
/// workhorse generator for all walk simulation.
class Xoshiro256PlusPlus {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64,
  /// as recommended by the xoshiro authors.
  explicit constexpr Xoshiro256PlusPlus(std::uint64_t seed = 0x9fe72810d2f4a1bcULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Advances the state by 2^128 steps; 2^128 non-overlapping subsequences.
  constexpr void jump() noexcept {
    apply_jump({0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL});
  }

  /// Advances the state by 2^192 steps; for top-level stream separation.
  constexpr void long_jump() noexcept {
    apply_jump({0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                0x77710069854ee241ULL, 0x39109bb02acbe635ULL});
  }

  /// Uniform value in [0, bound), bound >= 1. Lemire's nearly-divisionless
  /// method: one multiply in the common case, unbiased.
  ///
  /// Deliberately consumes only the LOW 32 bits of each 64-bit draw: this
  /// is the per-step draw of the walker.hpp samplers (hitting times), of
  /// graph generation and of the analyzer's probes, whose streams existing
  /// results are pinned to, so its mapping can never change. New code that
  /// is free to pick its own stream should prefer uniform_below_wide, whose
  /// rejection re-draws are ~2^32x rarer at large bounds.
  std::uint32_t uniform_below(std::uint32_t bound) noexcept {
    std::uint64_t x = next() & 0xffffffffULL;
    std::uint64_t m = x * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (lo < threshold) {
        x = next() & 0xffffffffULL;
        m = x * bound;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform value in [0, bound), bound >= 1, consuming the FULL 64-bit
  /// word in Lemire's multiply (64x32 -> 96-bit product; a single widening
  /// multiply where __int128 exists, two 64-bit halves otherwise — both
  /// reject on exactly the same lo64 < threshold condition, so the draw
  /// sequence is identical across implementations). Rejection probability
  /// drops from (2^32 mod bound)/2^32 — ~2.2% at bound = 10^8 — to
  /// bound/2^64, i.e. essentially never. This is the bounded draw of the
  /// lane walk kernel (and of any stream with no older mapping to keep).
  std::uint32_t uniform_below_wide(std::uint32_t bound) noexcept {
#if defined(__SIZEOF_INT128__)
    __extension__ using u128 = unsigned __int128;
    u128 m = static_cast<u128>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold =
          (0ULL - std::uint64_t{bound}) % bound;  // 2^64 mod bound
      while (lo < threshold) {
        m = static_cast<u128>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 64);
#else
    std::uint64_t x = next();
    std::uint64_t p_lo = (x & 0xffffffffULL) * bound;  // low  32 bits x bound
    std::uint64_t p_hi = (x >> 32) * bound;            // high 32 bits x bound
    // Low 64 bits of the 96-bit product x*bound (shift + add wrap mod 2^64).
    std::uint64_t lo = (p_hi << 32) + p_lo;
    if (lo < bound) {
      const std::uint64_t threshold =
          (0ULL - std::uint64_t{bound}) % bound;  // 2^64 mod bound
      while (lo < threshold) {
        x = next();
        p_lo = (x & 0xffffffffULL) * bound;
        p_hi = (x >> 32) * bound;
        lo = (p_hi << 32) + p_lo;
      }
    }
    // Top 32 bits of the 96-bit product: (p_hi + carry from p_lo) >> 32.
    return static_cast<std::uint32_t>((p_hi + (p_lo >> 32)) >> 32);
#endif
  }

  /// Uniform 64-bit value in [0, bound).
  std::uint64_t uniform_below64(std::uint64_t bound) noexcept {
    // Bitmask-with-rejection; branch-light and unbiased.
    const int bits = static_cast<int>(std::bit_width(bound - 1));
    const std::uint64_t mask =
        bits >= 64 ? ~0ULL : ((std::uint64_t{1} << bits) - 1);
    std::uint64_t v = next() & mask;
    while (v >= bound) v = next() & mask;
    return v;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) sample.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Exposes raw state for tests.
  constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

 private:
  constexpr void apply_jump(const std::array<std::uint64_t, 4>& table) noexcept {
    std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
    for (std::uint64_t word : table) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= state_[static_cast<std::size_t>(i)];
        }
        next();
      }
    }
    state_ = acc;
  }

  std::array<std::uint64_t, 4> state_{};
};

/// The library-wide default generator type.
using Rng = Xoshiro256PlusPlus;

/// Derives a reproducible per-trial generator: independent of thread count
/// and scheduling order, trial `index` under `master_seed` always sees the
/// same stream.
inline Rng make_trial_rng(std::uint64_t master_seed, std::uint64_t index) noexcept {
  // Mix the pair (seed, index) into a single 64-bit seed. The golden-ratio
  // constant decorrelates consecutive indices before the SplitMix64 expander.
  return Rng(mix64(master_seed ^ (index * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL)));
}

/// Derives the reproducible per-lane generator of the walk engine: lane
/// `lane` under lane master `master` always sees the same stream,
/// independent of thread count and scheduling (determinism contract v5). Same mixing shape as make_trial_rng but with a distinct
/// additive salt, so a lane stream can never alias a trial stream derived
/// from the same 64-bit value.
inline Rng make_lane_rng(std::uint64_t master, std::uint64_t lane) noexcept {
  return Rng(mix64(master ^ (lane * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL)));
}

/// A bank of per-lane generators, one independent stream per walk token.
/// Breaking the k tokens' shared-stream data dependency is what lets the
/// engine's round loop be software-pipelined: lane i+1's draw no longer
/// waits on lane i's next().
class LaneRngs {
 public:
  LaneRngs() = default;

  /// Re-derives `lanes` streams from `master` (cheap: one mix64 + four
  /// SplitMix64 steps per lane; called once per engine reset).
  void reseed(std::uint64_t master, std::size_t lanes) {
    lanes_.clear();
    lanes_.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      lanes_.push_back(make_lane_rng(master, lane));
    }
  }

  Rng& operator[](std::size_t lane) noexcept { return lanes_[lane]; }
  const Rng& operator[](std::size_t lane) const noexcept {
    return lanes_[lane];
  }
  Rng* data() noexcept { return lanes_.data(); }
  std::size_t size() const noexcept { return lanes_.size(); }

 private:
  std::vector<Rng> lanes_;
};

/// Lane neighbor-index draw: one masked word for power-of-two degrees,
/// Lemire's full-word path otherwise. A pure function of (rng, degree) — so
/// every substrate representation of the same graph consumes identical
/// draws, which is what keeps the CSR and implicit engines of the
/// CSR-ordered families bit-identical. (xoshiro256++ low bits are full
/// quality, unlike the + variant, so the mask is sound.)
inline std::uint32_t lane_neighbor_index(Rng& rng,
                                         std::uint32_t degree) noexcept {
  if (std::has_single_bit(degree)) {
    return static_cast<std::uint32_t>(rng.next()) & (degree - 1);
  }
  return rng.uniform_below_wide(degree);
}

}  // namespace manywalks
