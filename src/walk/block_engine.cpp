#include "walk/block_engine.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace manywalks {

BlockWalkEngine::BlockWalkEngine(const BlockedGraph& graph,
                                 std::uint64_t mem_budget_bytes)
    : graph_(&graph),
      cache_(graph, mem_budget_bytes),
      tracker_(graph.num_vertices()),
      snap_tracker_(graph.num_vertices()) {
  MW_REQUIRE(graph.min_degree() >= 1,
             "graph has an isolated vertex; walks are undefined");
}

void BlockWalkEngine::reset(std::span<const Vertex> starts) {
  MW_REQUIRE(!starts.empty(), "k-walk needs at least one token");
  tracker_.reset();
  tokens_.assign(starts.begin(), starts.end());
  for (Vertex s : tokens_) {
    MW_REQUIRE(s < graph_->num_vertices(), "start vertex out of range");
    tracker_.visit(s);
  }
  lanes_seeded_ = false;
}

void BlockWalkEngine::ensure_lanes(Rng& rng) {
  if (!lanes_seeded_) {
    lane_rngs_.reseed(rng.next(), tokens_.size());
    lanes_seeded_ = true;
  }
}

CoverSample BlockWalkEngine::run_until_visited(Vertex target, Rng& rng,
                                               const CoverOptions& options) {
  MW_REQUIRE(!tokens_.empty(), "no tokens; call reset() before running");
  MW_REQUIRE(target <= graph_->num_vertices(),
             "target " << target << " exceeds num_vertices "
                       << graph_->num_vertices());
  MW_REQUIRE(options.laziness >= 0.0 && options.laziness < 1.0,
             "laziness must be in [0,1)");
  CoverSample sample;
  if (tracker_.num_visited() >= target) {
    sample.covered = true;
    return sample;
  }
  if (options.step_cap == 0) return sample;  // no rounds, no draws
  ensure_lanes(rng);
  // Per-horizon observability flush keeps heartbeats live through a long
  // OOC cover: `last` tracks the stat state at the previous flush. kRounds
  // counts rounds EXECUTED (horizons run in full even when coverage lands
  // inside one; the exact-cover replay is tracked as kReplayedRounds).
  Stats last = stats_;
  obs::RunObserver* const o = obs::observer();
  obs::TraceWriter* const trace = o != nullptr ? o->trace : nullptr;

  std::uint64_t done = 0;
  while (done < options.step_cap) {
    const auto horizon = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kBlockHorizon, options.step_cap - done));
    {
      obs::TraceSpan span(trace, "horizon", "block");
      span.set_args("\"round_begin\":" + std::to_string(done) +
                    ",\"rounds\":" + std::to_string(horizon));
      // Snapshot, then run the horizon asynchronously. The horizon-end
      // state is exactly the lockstep state after `horizon` rounds (lane
      // trajectories are per-lane pure, visits commute), so checking
      // coverage only here is exact; the replay below recovers the precise
      // covering round.
      snap_tokens_ = tokens_;
      snap_rngs_.assign(lane_rngs_.data(), lane_rngs_.data() + tokens_.size());
      snap_tracker_ = tracker_;
      run_rounds_bucketed(horizon, options.laziness);
      ++stats_.horizons;
      done += horizon;
    }
    note_run_observed(last, horizon);
    last = stats_;
    if (o != nullptr && o->progress != nullptr) o->progress->tick();
    if (tracker_.num_visited() >= target) {
      tokens_ = snap_tokens_;
      std::copy(snap_rngs_.begin(), snap_rngs_.end(), lane_rngs_.data());
      tracker_ = snap_tracker_;
      std::uint64_t round = 0;
      {
        obs::TraceSpan span(trace, "cover-replay", "block");
        round = replay_cover_rounds(target, horizon, options.laziness);
      }
      note_run_observed(last, 0);
      sample.steps = done - horizon + round;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  sample.covered = false;
  return sample;
}

void BlockWalkEngine::run_for_steps(std::uint64_t rounds, Rng& rng,
                                    double laziness) {
  MW_REQUIRE(!tokens_.empty(), "no tokens; call reset() before running");
  MW_REQUIRE(laziness >= 0.0 && laziness < 1.0, "laziness must be in [0,1)");
  if (rounds == 0) return;
  ensure_lanes(rng);
  const Stats before = stats_;
  const std::uint64_t total_rounds = rounds;
  obs::RunObserver* const o = obs::observer();
  obs::TraceWriter* const trace = o != nullptr ? o->trace : nullptr;
  while (rounds > 0) {
    const auto horizon = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockHorizon, rounds));
    {
      obs::TraceSpan span(trace, "horizon", "block");
      run_rounds_bucketed(horizon, laziness);
    }
    ++stats_.horizons;
    rounds -= horizon;
    if (o != nullptr && o->progress != nullptr) o->progress->tick();
  }
  note_run_observed(before, total_rounds);
}

void BlockWalkEngine::run_rounds_bucketed(std::uint32_t rounds_each,
                                          double laziness) {
  rounds_left_.assign(tokens_.size(), rounds_each);
  while (true) {
    buckets_.rebuild(tokens_, rounds_left_, graph_->block_bits(),
                     graph_->num_blocks());
    const auto touched = buckets_.touched_blocks();
    if (touched.empty()) break;
    ++stats_.bucket_passes;
    for (const std::uint32_t b : touched) {
      process_block(b, laziness);
    }
  }
}

void BlockWalkEngine::process_block(std::uint32_t block, double laziness) {
  ++stats_.block_visits;
  obs::RunObserver* const o = obs::observer();
  obs::TraceSpan span(o != nullptr ? o->trace : nullptr, "block-visit",
                      "block");
  if (o != nullptr && o->trace != nullptr) {
    span.set_args("\"block\":" + std::to_string(block) + ",\"walkers\":" +
                  std::to_string(buckets_.lanes_in(block).size()));
  }
  const std::byte* raw = cache_.acquire(graph_->block_byte_begin(block),
                                        graph_->block_byte_end(block));
  // block_byte_begin is 4-aligned (targets_begin + 4*arc) by format.
  const auto* block_targets = reinterpret_cast<const Vertex*>(raw);
  const std::uint64_t arc0 = graph_->block_arc_begin(block);
  const std::uint64_t* const offsets = graph_->offsets().data();
  const std::uint32_t bits = graph_->block_bits();
  Rng* const rngs = lane_rngs_.data();

  for (const std::uint32_t lane : buckets_.lanes_in(block)) {
    Vertex v = tokens_[lane];
    std::uint32_t left = rounds_left_[lane];
    Rng rng = rngs[lane];
    // Per-step draws match the in-core lane kernels exactly (see
    // with_any_lane_draw's draw-stream invariant): an optional uniform01
    // iff laziness > 0, then lane_neighbor_index(rng, degree).
    while (left > 0) {
      if (laziness > 0.0 && rng.uniform01() < laziness) {
        --left;
        tracker_.visit(v);
        continue;
      }
      const auto degree = static_cast<Vertex>(offsets[v + 1] - offsets[v]);
      const std::uint64_t arc = offsets[v] + lane_neighbor_index(rng, degree);
      v = block_targets[arc - arc0];
      --left;
      tracker_.visit(v);
      if ((v >> bits) != block) break;  // exited: resume on a later pass
    }
    tokens_[lane] = v;
    rngs[lane] = rng;
    rounds_left_[lane] = left;
    // Round budget left means the walker exited this block and a later
    // pass resumes it elsewhere: one bucket migration.
    if (left > 0) ++stats_.bucket_migrations;
  }
}

void BlockWalkEngine::note_run_observed(const Stats& before,
                                        std::uint64_t rounds) const {
  obs::RunObserver* const o = obs::observer();
  if (o == nullptr || o->metrics == nullptr) return;
  obs::WorkerCounters& m = obs::thread_counters();
  m.add(obs::Metric::kRounds, rounds);
  m.add(obs::Metric::kSteps, rounds * tokens_.size());
  m.add(obs::Metric::kBucketPasses,
        stats_.bucket_passes - before.bucket_passes);
  m.add(obs::Metric::kBlockVisits, stats_.block_visits - before.block_visits);
  m.add(obs::Metric::kBucketMigrations,
        stats_.bucket_migrations - before.bucket_migrations);
  m.add(obs::Metric::kReplayedRounds,
        stats_.replayed_rounds - before.replayed_rounds);
}

std::uint64_t BlockWalkEngine::replay_cover_rounds(Vertex target,
                                                   std::uint32_t horizon,
                                                   double laziness) {
  // Lockstep replay from the snapshot: one round per sweep, coverage
  // checked at round granularity — exactly the in-core serial loop's
  // convention ("a round always finishes even if coverage is reached
  // mid-round").
  for (std::uint32_t round = 1; round <= horizon; ++round) {
    run_rounds_bucketed(1, laziness);
    ++stats_.replayed_rounds;
    if (tracker_.num_visited() >= target) return round;
  }
  // Unreachable: the asynchronous horizon reached coverage, and its end
  // state equals the lockstep end state.
  MW_REQUIRE(false, "cover replay did not reproduce horizon coverage");
  return horizon;
}

}  // namespace manywalks
