#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "walk/cover_types.hpp"

namespace manywalks {

McParallelism choose_parallelism(std::uint64_t max_trials, std::size_t lanes,
                                 unsigned pool_threads) noexcept {
  // A team of one worker plus the caller gains as much from trial
  // parallelism as from sharding, without any barrier; below that there is
  // no team at all.
  if (pool_threads <= 1) return McParallelism::kTrials;
  // Enough trials to keep every executor busy for 2+ batches: the
  // embarrassing parallelism wins.
  if (max_trials >= 2ULL * (pool_threads + 1)) return McParallelism::kTrials;
  // Few long trials: shard lanes if k warrants a real team.
  if (auto_lane_shards(lanes) >= 2) return McParallelism::kLanes;
  return McParallelism::kTrials;
}

const char* parallelism_name(McParallelism parallelism) noexcept {
  constexpr const char* kNames[] = {"trials", "lanes", "blocked"};
  return kNames[static_cast<std::size_t>(parallelism)];
}

McResult run_monte_carlo(const TrialFn& trial, const McOptions& options,
                         ThreadPool* pool) {
  MW_REQUIRE(trial != nullptr, "null trial function");
  MW_REQUIRE(options.min_trials >= 1, "min_trials must be >= 1");
  MW_REQUIRE(options.max_trials >= options.min_trials,
             "max_trials must be >= min_trials");
  MW_REQUIRE(options.target_rel_half_width > 0.0,
             "target_rel_half_width must be positive");

  const bool lane_mode = options.parallelism != McParallelism::kTrials;
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && !lane_mode) {
    local_pool = std::make_unique<ThreadPool>(options.threads);
    pool = local_pool.get();
  }

  Stopwatch watch;
  McResult result;
  std::vector<TrialOutcome> batch_values;

  // The Monte-Carlo loop runs on the coordinating thread; between batches
  // every worker is quiesced (parallel_for is a rendezvous), so registry
  // writes and scratch drains here are single-writer by construction.
  obs::RunObserver* const o = obs::observer();
  obs::MetricsRegistry* const metrics = o != nullptr ? o->metrics : nullptr;
  obs::TraceWriter* const trace = o != nullptr ? o->trace : nullptr;
  if (o != nullptr && o->progress != nullptr) {
    // Experiments run several Monte-Carlo estimates back to back; the
    // heartbeat's done/total is cumulative, so extend the total by this
    // run's budget on top of the trials already reduced. Early CI stops
    // leave it an upper bound until the next run resets it.
    const std::uint64_t reduced =
        metrics != nullptr ? metrics->value(obs::Metric::kTrialsDone) : 0;
    o->progress->set_total_trials(reduced + options.max_trials);
  }

  std::uint64_t done = 0;
  while (done < options.max_trials) {
    // Batch size: the first batch covers min_trials so the CI is
    // meaningful at the first check; afterwards batches grow geometrically
    // (each rendezvous doubles the completed-trial count, floored at 8,
    // capped by the remaining budget). Cheap small-n trials would
    // otherwise pay a full parallel_for submit + condition-variable
    // rendezvous per ~8 trials. The floor must not depend on the pool
    // size: batch boundaries are where the CI stop is checked, so they
    // fix the trial count an adaptive estimate stops at.
    const std::uint64_t want =
        done == 0 ? options.min_trials : std::max<std::uint64_t>(8, done);
    const std::uint64_t batch = std::min(want, options.max_trials - done);
    batch_values.assign(batch, TrialOutcome{});
    if (metrics != nullptr) metrics->add(obs::Metric::kTrialsStarted, batch);
    if (lane_mode) {
      // Lane or blocked mode: the pool, if any, belongs to the sharded
      // engine inside each trial; the trial loop itself stays on the
      // caller. Same per-trial streams, same order — the estimate is
      // bit-identical to kTrials.
      for (std::uint64_t i = 0; i < batch; ++i) {
        const std::uint64_t index = done + i;
        obs::TraceSpan span(trace, "trial", "mc");
        span.set_args("\"trial\":" + std::to_string(index));
        Rng rng = make_trial_rng(options.seed, index);
        batch_values[i] = trial(index, rng);
      }
    } else {
      // Trial-parallel batches overlap on the pool; per-trial spans would
      // need cross-thread trace writes, so the span covers the batch.
      obs::TraceSpan span(trace, "batch", "mc");
      span.set_args("\"trial_begin\":" + std::to_string(done) +
                    ",\"trials\":" + std::to_string(batch));
      parallel_for(
          *pool, 0, batch,
          [&](std::uint64_t i) {
            const std::uint64_t index = done + i;
            Rng rng = make_trial_rng(options.seed, index);
            batch_values[i] = trial(index, rng);
          },
          /*grain=*/1);
    }
    // Index-ordered reduction keeps the result independent of scheduling
    // AND of batch boundaries: stats absorb trial 0, 1, 2, ... in order no
    // matter how the batches were cut.
    for (const TrialOutcome& outcome : batch_values) {
      result.stats.add(outcome.value);
      if (outcome.censored) ++result.censored;
      if (metrics != nullptr) {
        metrics->add(obs::Metric::kTrialsDone, 1);
        if (outcome.censored) metrics->add(obs::Metric::kTrialsCensored, 1);
        metrics->observe(obs::Metric::kTrialRounds,
                         static_cast<std::uint64_t>(outcome.value));
      }
    }
    done += batch;
    if (metrics != nullptr) obs::drain_thread_counters(*metrics);
    if (o != nullptr && o->progress != nullptr) o->progress->tick();

    if (done >= options.min_trials) {
      result.ci = mean_confidence_interval(result.stats, options.confidence);
      // A censored (step-cap-truncated) trial makes the mean a lower bound
      // and the CI meaningless as a precision certificate: never stop
      // early on it and never report the target as met (the old behavior
      // silently biased every estimate whose cap ever fired).
      if (result.censored == 0 &&
          result.ci.relative_half_width() <= options.target_rel_half_width) {
        result.target_met = true;
        break;
      }
    }
  }
  result.ci = mean_confidence_interval(result.stats, options.confidence);
  result.target_met =
      result.censored == 0 &&
      result.ci.relative_half_width() <= options.target_rel_half_width;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace manywalks
