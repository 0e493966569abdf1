#include "obs/metrics.hpp"

#include <bit>
#include <ctime>
#include <mutex>

#include "util/check.hpp"

namespace manywalks::obs {

namespace {

struct MetricInfo {
  const char* name;
  MetricKind kind;
};

constexpr MetricInfo kMetricInfo[kMetricCount] = {
    {"walk.steps", MetricKind::kCounter},
    {"walk.rounds", MetricKind::kCounter},
    {"shard.merges", MetricKind::kCounter},
    {"block.bucket_passes", MetricKind::kCounter},
    {"block.block_visits", MetricKind::kCounter},
    {"block.bucket_migrations", MetricKind::kCounter},
    {"cache.loads", MetricKind::kCounter},
    {"cache.hits", MetricKind::kCounter},
    {"cache.evictions", MetricKind::kCounter},
    {"cache.bytes_loaded", MetricKind::kCounter},
    {"mc.trials_started", MetricKind::kCounter},
    {"mc.trials_done", MetricKind::kCounter},
    {"mc.trials_censored", MetricKind::kCounter},
    {"pool.queue_peak", MetricKind::kGauge},
    {"mc.trial_rounds", MetricKind::kHistogram},
};

// --- thread-local scratch registry -----------------------------------
//
// Each thread's scratch lives in a thread_local handle that registers its
// pointer under the scratch mutex on first touch and unregisters at thread
// exit, folding any unmerged counts into the orphan bucket so a pool that
// is destroyed before the next drain loses nothing. The mutex guards only
// registration, unregistration, and drains — all cold paths.

std::mutex& scratch_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<WorkerCounters*>& scratch_list() {
  static std::vector<WorkerCounters*> list;
  return list;
}

WorkerCounters& orphan_counters() {
  static WorkerCounters orphans;
  return orphans;
}

struct ScratchHandle {
  WorkerCounters counters;
  ScratchHandle() {
    const std::lock_guard<std::mutex> lock(scratch_mutex());
    scratch_list().push_back(&counters);
  }
  ~ScratchHandle() {
    const std::lock_guard<std::mutex> lock(scratch_mutex());
    auto& list = scratch_list();
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == &counters) {
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      const auto metric = static_cast<Metric>(i);
      if (metric_kind(metric) == MetricKind::kGauge) {
        orphan_counters().note_max(metric, counters.count(metric));
      } else {
        orphan_counters().add(metric, counters.count(metric));
      }
    }
  }
};

}  // namespace

WorkerCounters& thread_counters() {
  thread_local ScratchHandle handle;
  return handle.counters;
}

void drain_thread_counters(MetricsRegistry& registry) {
  const std::lock_guard<std::mutex> lock(scratch_mutex());
  for (WorkerCounters* scratch : scratch_list()) {
    registry.merge(*scratch);
    scratch->reset();
  }
  registry.merge(orphan_counters());
  orphan_counters().reset();
}

const char* metric_name(Metric metric) {
  const auto index = static_cast<std::size_t>(metric);
  MW_REQUIRE(index < kMetricCount, "metric_name: bad metric id");
  return kMetricInfo[index].name;
}

MetricKind metric_kind(Metric metric) {
  const auto index = static_cast<std::size_t>(metric);
  MW_REQUIRE(index < kMetricCount, "metric_kind: bad metric id");
  return kMetricInfo[index].kind;
}

std::size_t histogram_bucket(std::uint64_t value) {
  if (value == 0) return 0;
  return static_cast<std::size_t>(std::bit_width(value));
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

MetricsRegistry::MetricsRegistry() {
  std::size_t fixed_histograms = 0;
  for (const MetricInfo& info : kMetricInfo) {
    if (info.kind == MetricKind::kHistogram) ++fixed_histograms;
  }
  histograms_.resize(fixed_histograms);
}

void MetricsRegistry::observe(Metric metric, std::uint64_t value) {
  MW_REQUIRE(metric_kind(metric) == MetricKind::kHistogram,
             "observe() needs a histogram metric");
  // Histogram slots are assigned in enum order among histogram metrics.
  std::size_t slot = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(metric); ++i) {
    if (kMetricInfo[i].kind == MetricKind::kHistogram) ++slot;
  }
  auto& buckets = histograms_[slot];
  const std::size_t bucket = histogram_bucket(value);
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
  ++buckets[bucket];
  // The counter slot doubles as the observation count so value() and the
  // manifest have a scalar to show.
  values_[static_cast<std::size_t>(metric)] += 1;
}

void MetricsRegistry::merge(const WorkerCounters& worker) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetricInfo[i].kind == MetricKind::kGauge) {
      if (worker.counts_[i] > values_[i]) values_[i] = worker.counts_[i];
    } else {
      values_[i] += worker.counts_[i];
    }
  }
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(kMetricCount);
  std::size_t histogram_slot = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    MetricSnapshot snap;
    snap.name = kMetricInfo[i].name;
    snap.kind = kMetricInfo[i].kind;
    snap.value = values_[i];
    if (snap.kind == MetricKind::kHistogram) {
      snap.buckets = histograms_[histogram_slot++];
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::reset() {
  values_ = {};
  for (auto& buckets : histograms_) buckets.clear();
}

}  // namespace manywalks::obs
