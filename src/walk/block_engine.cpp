#include "walk/block_engine.hpp"

#include <algorithm>
#include <array>
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
      stamps_(graph.num_vertices(), Stamp{0}),
      // Pages of the fresh list are touched only as vertices are listed.
      fresh_(std::make_unique_for_overwrite<Vertex[]>(graph.num_vertices())) {
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
  rewind_rounds_ = 0;
  buckets_.reset(graph_->num_blocks(), tokens_.size());
}

void BlockWalkEngine::ensure_lanes(Rng& rng) {
  if (!lanes_seeded_) {
    lane_rngs_.reseed(rng.next(), tokens_.size());
    lanes_seeded_ = true;
  }
}

void BlockWalkEngine::settle() {
  if (rewind_rounds_ == 0) return;
  const std::uint32_t rounds = rewind_rounds_;
  rewind_rounds_ = 0;
  std::copy(snap_tokens_.begin(), snap_tokens_.end(), tokens_.begin());
  std::copy(snap_rngs_.begin(), snap_rngs_.end(), lane_rngs_.data());
  run_horizon<Visits::kNone>(rounds, rewind_laziness_);
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
  // Per-horizon observability flush keeps heartbeats live through a long
  // OOC cover: `last` tracks the stat state at the previous flush. kRounds
  // counts rounds EXECUTED: horizons run in full even when coverage lands
  // inside one.
  Stats last = stats_;
  settle();
  ensure_lanes(rng);
  obs::RunObserver* const o = obs::observer();
  obs::TraceWriter* const trace = o != nullptr ? o->trace : nullptr;

  std::uint64_t done = 0;
  while (done < options.step_cap) {
    const auto horizon = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kBlockHorizon, options.step_cap - done));
    const Vertex before = tracker_.num_visited();
    {
      obs::TraceSpan span(trace, "horizon", "block");
      span.set_args("\"round_begin\":" + std::to_string(done) +
                    ",\"rounds\":" + std::to_string(horizon));
      snap_tokens_ = tokens_;
      snap_rngs_.assign(lane_rngs_.data(), lane_rngs_.data() + tokens_.size());
      run_horizon<Visits::kStamp>(horizon, options.laziness);
      ++stats_.horizons;
      done += horizon;
    }
    const std::uint32_t round = close_horizon(target, before, horizon);
    note_run_observed(last, horizon);
    last = stats_;
    if (o != nullptr && o->progress != nullptr) o->progress->tick();
    if (round != 0) {
      if (round < horizon) {
        rewind_rounds_ = round;
        rewind_laziness_ = options.laziness;
      }
      sample.steps = done - horizon + round;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  sample.covered = false;
  return sample;
}

template <BlockWalkEngine::Visits kVisits>
void BlockWalkEngine::run_horizon(std::uint32_t rounds, double laziness) {
  rounds_left_.assign(tokens_.size(), rounds);
  const std::uint32_t bits = graph_->block_bits();
  for (std::size_t lane = 0; lane < tokens_.size(); ++lane) {
    buckets_.push(tokens_[lane] >> bits, static_cast<std::uint32_t>(lane));
  }
  while (!buckets_.empty()) {
    ++stats_.bucket_passes;
    for (std::uint32_t b = buckets_.next_block(0); b != WalkerBuckets::kNone;
         b = buckets_.next_block(b + 1)) {
      if (laziness > 0.0) {
        process_block<true, kVisits>(b, rounds, laziness);
      } else {
        process_block<false, kVisits>(b, rounds, laziness);
      }
    }
  }
}

template <bool kLazy, BlockWalkEngine::Visits kVisits>
void BlockWalkEngine::process_block(std::uint32_t block, std::uint32_t rounds,
                                    double laziness) {
  ++stats_.block_visits;
  obs::RunObserver* const o = obs::observer();
  obs::TraceSpan span(o != nullptr ? o->trace : nullptr, "block-visit",
                      "block");
  const std::byte* raw = cache_.acquire(graph_->block_byte_begin(block),
                                        graph_->block_byte_end(block));
  // block_byte_begin is 4-aligned (targets_begin + 4*arc) by format.
  const auto* block_targets = reinterpret_cast<const Vertex*>(raw);
  const std::uint64_t arc0 = graph_->block_arc_begin(block);
  const std::uint64_t* const offsets = graph_->offsets().data();
  const std::uint32_t bits = graph_->block_bits();
  Vertex* const toks = tokens_.data();
  Rng* const rngs = lane_rngs_.data();
  std::uint32_t* const rounds_left = rounds_left_.data();
  // Kernel state lives in locals (as in WalkEngineT's lane kernels) and is
  // written back once per block.
  std::uint64_t* const words = tracker_.words();
  Vertex visited = tracker_.num_visited();
  Stamp* const stamps = stamps_.data();
  Vertex* fresh = fresh_.get() + num_fresh_;
  std::uint64_t migrations = 0;

  const std::uint32_t walkers = buckets_.drain(block, [&](std::uint32_t lane) {
    Vertex v = toks[lane];
    std::uint32_t left = rounds_left[lane];
    Rng rng = rngs[lane];
    // Per-step draws match the in-core lane kernels exactly: a uniform01
    // iff the walk is lazy, then lane_neighbor_index(rng, degree). A lazy
    // step stays on a vertex this lane already visited at an earlier
    // round, so it commits nothing.
    while (left > 0) {
      if constexpr (kLazy) {
        if (rng.uniform01() < laziness) {
          --left;
          continue;
        }
      }
      const std::uint64_t row = offsets[v];
      const auto degree = static_cast<Vertex>(offsets[v + 1] - row);
      v = block_targets[row + lane_neighbor_index(rng, degree) - arc0];
      const auto round = static_cast<Stamp>(rounds + 1 - left);
      --left;
      if constexpr (kVisits == Visits::kStamp) {
        std::uint64_t& word = words[v >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        if ((word & bit) == 0) {
          word |= bit;
          ++visited;
          stamps[v] = round;
          *fresh++ = v;
        } else if (stamps[v] > round) {
          stamps[v] = round;
        }
      }
      if ((v >> bits) != block) break;
    }
    toks[lane] = v;
    rngs[lane] = rng;
    rounds_left[lane] = left;
    // Round budget left means the walker exited this block: it joins the
    // exit block's bucket, later in this pass or in the next one.
    if (left > 0) {
      buckets_.push(v >> bits, lane);
      ++migrations;
    }
  });

  stats_.bucket_migrations += migrations;
  if constexpr (kVisits == Visits::kStamp) {
    tracker_.set_num_visited(visited);
    num_fresh_ = static_cast<std::size_t>(fresh - fresh_.get());
  }
  if (o != nullptr && o->trace != nullptr) {
    span.set_args("\"block\":" + std::to_string(block) +
                  ",\"walkers\":" + std::to_string(walkers));
  }
}

std::uint32_t BlockWalkEngine::close_horizon(Vertex target, Vertex before,
                                             std::uint32_t rounds) {
  Stamp* const stamps = stamps_.data();
  const std::span<const Vertex> fresh(fresh_.get(), num_fresh_);
  num_fresh_ = 0;
  std::uint32_t cover_round = 0;
  if (tracker_.num_visited() >= target) {
    // The union after round r is the old set plus every fresh vertex
    // stamped <= r: the first r where that reaches the target is exact.
    std::array<Vertex, kBlockHorizon + 1> first_visits{};
    for (const Vertex v : fresh) {
      ++first_visits[static_cast<unsigned>(stamps[v])];
    }
    Vertex reached = before;
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      reached += first_visits[r];
      if (reached >= target) {
        cover_round = r;
        break;
      }
    }
    MW_ASSERT(cover_round != 0);
    const auto last = static_cast<Stamp>(cover_round);
    std::uint64_t* const words = tracker_.words();
    Vertex visited = tracker_.num_visited();
    for (const Vertex v : fresh) {
      if (stamps[v] > last) {
        words[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
        --visited;
      }
    }
    tracker_.set_num_visited(visited);
  }
  for (const Vertex v : fresh) stamps[v] = Stamp{0};
  return cover_round;
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
}

}  // namespace manywalks
