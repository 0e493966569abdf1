// Measurement of the paper's graph parameters for arbitrary instances:
// maximum hitting time h_max (exact solve below a size limit, extremal-pair
// sampling above it) and mixing time t_m (lazy chain where the plain walk
// is periodic).
#pragma once

#include <cstdint>
#include <span>

#include "core/families.hpp"
#include "mc/estimators.hpp"

namespace manywalks {

struct HmaxEstimate {
  double value = 0.0;
  bool exact = false;        ///< solved exactly vs sampled candidate pairs
  Vertex from = 0;           ///< argmax pair
  Vertex to = 0;
  double half_width = 0.0;   ///< 0 when exact
};

/// Measures h_max = max_{u,v} h(u, v). For n <= exact_limit the fundamental
/// matrix gives the exact maximum (O(n^3)); otherwise hitting times are
/// sampled on heuristic extremal pairs (double-sweep BFS endpoints, the
/// minimum-degree vertex, and a few random pairs) and the max is reported
/// as a lower-bound estimate.
HmaxEstimate measure_h_max(const Graph& g, const McOptions& mc,
                           std::uint64_t exact_limit = 1200,
                           ThreadPool* pool = nullptr);

struct MixingMeasurement {
  std::uint64_t time = 0;
  bool converged = false;
  double laziness = 0.0;  ///< laziness actually used
};

/// Measures the paper's mixing time from a small set of sources (defaults:
/// vertex 0, a max-degree vertex, and a min-degree vertex). If `force_lazy`
/// (or the graph is bipartite) the lazy(1/2) chain is measured instead —
/// the plain chain does not converge on periodic graphs.
MixingMeasurement measure_mixing_time(const Graph& g, bool force_lazy,
                                      std::uint64_t max_steps = 1'000'000,
                                      std::span<const Vertex> sources = {});

/// One-stop profile of a family instance: Ĉ (from the canonical start),
/// h_max, t_m, and the gap g(n) = Ĉ / h_max (Thm 5).
struct GraphProfile {
  McResult cover;
  HmaxEstimate h_max;
  MixingMeasurement mixing;
  double gap = 0.0;
};

struct ProfileOptions {
  McOptions mc;
  CoverOptions cover;
  std::uint64_t hmax_exact_limit = 1200;
  std::uint64_t mixing_cap = 1'000'000;
};

GraphProfile profile_graph(const FamilyInstance& instance,
                           const ProfileOptions& options,
                           ThreadPool* pool = nullptr);

}  // namespace manywalks
