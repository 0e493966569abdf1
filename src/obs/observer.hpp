// RunObserver: the process-wide observability switchboard (ISSUE 10).
//
// A RunObserver bundles the three optional sinks — MetricsRegistry,
// TraceWriter, ProgressReporter — behind one plain pointer. The pointer is
// null by default, so every instrumentation site costs exactly one
// predictable branch when observability is off and the engines keep their
// measured steps/s (gated by `bench_engine --obs_guard` at <= 3% overhead
// even with metrics ON).
//
// Install/uninstall discipline: the CLI (or a test) installs an observer
// BEFORE spawning or dispatching to worker threads and uninstalls it AFTER
// joining them. Thread creation/join orders the pointer write against every
// reader, so no atomics are needed — and manywalks-stray-atomic bans them
// here anyway. Never install or swap an observer while a run is in flight.
//
// Inertness rule (pinned by goldens in tests/test_obs.cpp): instrumentation
// may count, time, and print, but may never draw RNG, never branch on
// timing in a way that changes a walk/merge/block schedule, and never
// reorder contract v3-v6 work.
#pragma once

#include <cstdint>

namespace manywalks::obs {

class MetricsRegistry;
class ProgressReporter;
class TraceWriter;

struct RunObserver {
  MetricsRegistry* metrics = nullptr;
  TraceWriter* trace = nullptr;
  ProgressReporter* progress = nullptr;
};

/// The installed observer, or nullptr (the default: observability off).
RunObserver* observer();

/// Installs `obs` (nullptr to uninstall). Must be called from the main
/// thread while no worker threads are running instrumented code.
void install_observer(RunObserver* obs);

/// RAII installer for scoped runs (CLI driver, tests).
class ScopedObserver {
 public:
  explicit ScopedObserver(RunObserver* obs) { install_observer(obs); }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;
  ~ScopedObserver() { install_observer(nullptr); }
};

}  // namespace manywalks::obs
