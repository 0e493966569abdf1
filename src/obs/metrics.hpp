// MetricsRegistry: typed counters/gauges/histograms for the observability
// layer (ISSUE 10). Hot paths never touch atomics — updates are plain
// uint64_t arithmetic performed only at deterministic single-writer points:
//
//   * the Monte-Carlo reduction loop (index-ordered over trial outcomes,
//     always on the coordinating thread),
//   * shard worker 0 of a sharded cover run, which per contract v3 IS the
//     calling thread (parallel_for_static runs chunk 0 on the caller and
//     run_shard_team mirrors that),
//   * the block engine's horizon loop (deliberately serial under v4),
//   * per-worker WorkerCounters scratch merged index-ordered after the
//     thread team joins.
//
// That single-writer discipline is what makes the layer observably inert:
// no locks or fences appear in kernel loops, so instrumentation cannot
// perturb a contract v3-v5 schedule. The concurrent path is WorkerCounters:
// each worker owns one, fills it with plain increments, and the coordinator
// merges them in worker-index order after the join — the join is the
// synchronization, not the registry.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace manywalks::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Well-known metrics get fixed slots so hot paths index an array instead
/// of hashing names. `metric_name()` is the registered-by-name surface the
/// snapshot/manifest renderers expose.
enum class Metric : std::size_t {
  kSteps = 0,         // lane-steps advanced (rounds x k)
  kRounds,            // cover/walk rounds completed
  kMerges,            // sharded rounds that ran the index-ordered merge
  kMergeStalls,       // sharded rounds that skipped the merge (bound < target)
  kBucketPasses,      // block engine: passes over the bucket list
  kBlockVisits,       // block engine: per-block visits
  kBucketMigrations,  // walkers re-bucketed to another block after a visit
  kReplayedRounds,    // exact-cover replay rounds after a horizon snapshot
  kCacheLoads,        // extent-cache misses that mapped an extent
  kCacheHits,
  kCacheEvictions,
  kCacheBytesLoaded,
  kTrialsStarted,     // Monte-Carlo trials dispatched
  kTrialsDone,        // trial outcomes reduced
  kTrialsCensored,    // outcomes that hit the step cap
  kPoolQueuePeak,     // gauge: deepest thread-pool queue sampled
  kTrialRounds,       // histogram: rounds per finished trial (log2 buckets)
  kCount
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

const char* metric_name(Metric metric);
MetricKind metric_kind(Metric metric);

/// Log2 bucket index for histogram observations: value v lands in bucket
/// floor(log2(v)) + 1, zero in bucket 0. 64 buckets cover all of uint64.
std::size_t histogram_bucket(std::uint64_t value);

/// Process CPU seconds (user + system, summed over all threads) for the
/// run manifest. Lives in src/obs so the manywalks-raw-clock lint rule
/// keeps every clock read fenced inside the observability layer.
double process_cpu_seconds();

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;                 // counter total / gauge level
  std::vector<std::uint64_t> buckets;      // histograms only (log2 buckets)
};

class MetricsRegistry;

/// Per-worker scratch counters. A worker fills its own WorkerCounters with
/// plain increments while the team runs; after the join the coordinator
/// calls MetricsRegistry::merge() on each, in worker-index order.
class WorkerCounters {
 public:
  void add(Metric metric, std::uint64_t delta) {
    counts_[static_cast<std::size_t>(metric)] += delta;
  }
  /// Gauge sample: keeps the high-water mark (merged with max, not sum).
  void note_max(Metric metric, std::uint64_t level) {
    auto& slot = counts_[static_cast<std::size_t>(metric)];
    if (level > slot) slot = level;
  }
  std::uint64_t count(Metric metric) const {
    return counts_[static_cast<std::size_t>(metric)];
  }
  void reset() { counts_ = {}; }

 private:
  friend class MetricsRegistry;
  std::array<std::uint64_t, kMetricCount> counts_{};
};

/// The calling thread's scratch. EVERY engine-side counter update goes
/// here — never to the registry — so instrumented engine runs on thread-
/// pool workers (kTrials Monte-Carlo) are race-free by construction. The
/// scratch registers itself under a mutex on first touch (cold path); hot
/// increments stay plain uint64_t adds.
WorkerCounters& thread_counters();

/// Merges every thread's scratch into `registry` (in scratch-registration
/// order — counters are commutative sums and gauges max-merge, so order
/// cannot change the result) and zeroes them. The caller must be the
/// coordinating thread at a quiesced point: no other thread may be running
/// instrumented code (e.g. right after a parallel_for rendezvous, after a
/// shard-team join, or after the pool idles). Counters from threads that
/// exited earlier (a destroyed pool) are preserved and drained too.
void drain_thread_counters(MetricsRegistry& registry);

class MetricsRegistry {
 public:
  MetricsRegistry();

  // --- hot-path updates (single deterministic writer, see header note) ---
  void add(Metric metric, std::uint64_t delta) {
    values_[static_cast<std::size_t>(metric)] += delta;
  }
  /// Gauges record the high-water mark of a sampled level.
  void gauge_max(Metric metric, std::uint64_t level) {
    auto& slot = values_[static_cast<std::size_t>(metric)];
    if (level > slot) slot = level;
  }
  void observe(Metric metric, std::uint64_t value);

  /// Index-ordered merge of one worker's batched counters.
  void merge(const WorkerCounters& worker);

  // --- dynamic registration (bench/tests extension metrics) ---
  std::size_t register_metric(std::string name, MetricKind kind);
  void add_id(std::size_t id, std::uint64_t delta);
  std::uint64_t value_id(std::size_t id) const;

  std::uint64_t value(Metric metric) const {
    return values_[static_cast<std::size_t>(metric)];
  }

  /// Fixed metrics in enum order, then dynamic metrics in registration
  /// order — a deterministic snapshot for the run manifest.
  std::vector<MetricSnapshot> snapshot() const;

  void reset();

 private:
  struct Dynamic {
    std::string name;
    MetricKind kind;
    std::uint64_t value = 0;
    std::vector<std::uint64_t> buckets;
  };
  std::array<std::uint64_t, kMetricCount> values_{};
  std::vector<std::vector<std::uint64_t>> histograms_;  // per fixed histogram
  std::vector<Dynamic> dynamic_;
};

}  // namespace manywalks::obs
