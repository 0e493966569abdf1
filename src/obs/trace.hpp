// TraceWriter: Chrome trace-event JSON for Perfetto / chrome://tracing.
//
// Spans are coarse by design — experiment, trial, horizon (round-chunk),
// block-visit, extent-cache load/evict — never per walk step, so recording
// stays off the kernel hot path. Events buffer in memory behind a mutex
// (spans are emitted at most a few thousand times per second; contention is
// nil because almost every emitter runs on the coordinating thread) and the
// file is written once at the end of the run.
//
// This file and progress.hpp are the only places outside src/util/timer.hpp
// and bench/ allowed to touch <chrono>: manywalks-lint's raw-clock rule
// fences clock reads into the observability layer so timing can never leak
// into a contract v3-v6 schedule decision.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace manywalks::obs {

class TraceWriter {
 public:
  /// Buffered events are capped so block-visit spans from a long OOC run
  /// cannot balloon the file. The cap applies only to the high-frequency
  /// "block"/"cache" categories (counted as dropped past it); structural
  /// spans (experiment/trial/batch, cats "cli"/"mc") are always admitted —
  /// they are few, and they close LAST, so a blind cap would drop exactly
  /// the outer hierarchy the trace exists to show.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 19;

  explicit TraceWriter(std::string path,
                       std::size_t max_events = kDefaultMaxEvents);

  /// Microseconds since this writer was constructed (steady clock).
  std::uint64_t now_us() const;

  /// Complete span (ph "X"). `name`/`cat` must be string literals or
  /// otherwise outlive the writer. `args_json` is a pre-rendered JSON
  /// object body (no braces), e.g. "\"trial\":3".
  void complete(const char* name, const char* cat, std::uint32_t tid,
                std::uint64_t ts_us, std::uint64_t dur_us,
                std::string args_json = {});
  /// Instant event (ph "i", thread scope).
  void instant(const char* name, const char* cat, std::uint32_t tid,
               std::string args_json = {});
  /// Counter track (ph "C") with a single series named after the event.
  void counter(const char* name, std::uint64_t value);

  std::size_t event_count() const;
  std::size_t dropped() const;
  const std::string& path() const { return path_; }

  /// The full trace document (for tests).
  std::string render() const;
  /// Renders and writes to path(); returns false on I/O failure.
  bool write() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    char ph;
    std::uint32_t tid;
    std::uint64_t ts;
    std::uint64_t dur;    // ph == 'X' only
    std::uint64_t cval;   // ph == 'C' only
    std::string args;
  };

  void push(Event event);

  std::string path_;
  std::size_t max_events_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
};

/// RAII span: records the start time at construction and emits one complete
/// event at destruction. A null writer makes every operation a no-op, so
/// instrumentation sites write `TraceSpan span(o ? o->trace : nullptr, ...)`
/// unconditionally.
class TraceSpan {
 public:
  TraceSpan(TraceWriter* writer, const char* name, const char* cat,
            std::uint32_t tid = 0)
      : writer_(writer), name_(name), cat_(cat), tid_(tid) {
    if (writer_ != nullptr) start_us_ = writer_->now_us();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (writer_ == nullptr) return;
    const std::uint64_t end_us = writer_->now_us();
    writer_->complete(name_, cat_, tid_, start_us_,
                      end_us > start_us_ ? end_us - start_us_ : 0,
                      std::move(args_));
  }

  /// Attaches a pre-rendered JSON object body to the span.
  void set_args(std::string args_json) {
    if (writer_ != nullptr) args_ = std::move(args_json);
  }

 private:
  TraceWriter* writer_;
  const char* name_;
  const char* cat_;
  std::uint32_t tid_;
  std::uint64_t start_us_ = 0;
  std::string args_;
};

}  // namespace manywalks::obs
