// Internal helpers shared by the experiments_*.cpp registration files.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/presets.hpp"
#include "cli/registry.hpp"
#include "mc/monte_carlo.hpp"
#include "util/check.hpp"

namespace manywalks::cli {

/// The k-sweep every speed-up experiment uses: 1, factor, factor², ... up
/// to k_limit. Overflow-safe for any 64-bit --kmax (the limit is clamped
/// to the unsigned range and the loop stops before k * factor can wrap).
inline std::vector<unsigned> geometric_ks(std::uint64_t k_limit,
                                          std::uint64_t factor = 2) {
  MW_REQUIRE(factor >= 2, "geometric_ks needs factor >= 2, got " << factor);
  std::vector<unsigned> ks;
  const std::uint64_t bound = std::min<std::uint64_t>(
      std::max<std::uint64_t>(k_limit, 1),
      std::numeric_limits<unsigned>::max());
  for (std::uint64_t k = 1; k <= bound; k *= factor) {
    ks.push_back(static_cast<unsigned>(k));
    if (k > bound / factor) break;  // k * factor would overflow past bound
  }
  return ks;
}

/// Rejects a flag value the experiment cannot run. The message alone is
/// thrown, with no source location: the fault is in the input, and the
/// message names the flag and its limit.
inline void require_option(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument(message);
}

/// Guard on --kmax/--k style walk counts: a sweep point allocates 4k bytes
/// of tokens and does k token-steps per round, so reject absurd values up
/// front instead of grinding into an OOM (2^20 walks is already far past
/// every regime the paper discusses).
inline std::uint64_t checked_walk_count(const char* name,
                                        std::uint64_t k_limit) {
  constexpr std::uint64_t kMaxWalks = 1ULL << 20;
  MW_REQUIRE(k_limit <= kMaxWalks,
             name << ": walk count " << k_limit << " exceeds the supported "
                  << kMaxWalks << " walks");
  return k_limit;
}

/// Clamps a --target coverage goal into [2, n]: 0 (and anything past n)
/// means full cover, and a target of 1 is degenerate — the start vertex
/// alone covers it at t = 0. Shared by the giant-* and mwg-* experiments
/// so the clamping policy cannot drift between them.
inline std::uint32_t clamp_cover_target(std::uint64_t target,
                                        std::uint32_t n) {
  if (target == 0 || target > n) return n;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(target, 2));
}

inline void push_param(ExperimentResult& result, std::string name,
                       std::uint64_t value) {
  result.params.emplace_back(std::move(name), ResultCell{value});
}

inline void push_param(ExperimentResult& result, std::string name,
                       double value) {
  result.params.emplace_back(std::move(name), ResultCell{RealCell{value, 4}});
}

inline void push_param(ExperimentResult& result, std::string name,
                       std::string value) {
  result.params.emplace_back(std::move(name), ResultCell{std::move(value)});
}

inline void push_param(ExperimentResult& result, std::string name,
                       bool value) {
  result.params.emplace_back(std::move(name), ResultCell{value});
}

/// Records the trial plan of the experiment's headline (largest-k)
/// estimate: the "parallelism" mode and, in core, the "lane_shards" count
/// (0 = serial lane kernel) join the params echo, and the plan itself goes
/// to the --metrics manifest.
inline void push_trial_plan(ExperimentResult& result, const TrialPlan& plan) {
  result.plan = plan;
  push_param(result, "parallelism", std::string(parallelism_name(plan.mode)));
  if (plan.mode != McParallelism::kBlocked) {
    push_param(result, "lane_shards",
               static_cast<std::uint64_t>(plan.lane_shards));
  }
}

/// The shared (seed, full, n, trials, threads) parameter echo.
inline void push_common_params(ExperimentResult& result, std::uint64_t seed,
                               bool full, std::uint64_t n,
                               std::uint64_t trials, unsigned threads) {
  push_param(result, "seed", seed);
  push_param(result, "full", full);
  if (n != 0) push_param(result, "n", n);
  push_param(result, "trials", trials);
  push_param(result, "threads", static_cast<std::uint64_t>(threads));
}

}  // namespace manywalks::cli
