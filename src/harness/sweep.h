// Parallel experiment sweeps.
//
// Every paper figure is a sweep of independent (protocol, load, ...) points;
// run_sweep() executes a vector of ExperimentConfigs on up to `jobs` threads
// that claim cells from one shared counter, and returns the results in
// submission order.
//
// Determinism guarantee — the property the sweep test layer
// (tests/test_sweep_determinism.cpp) enforces: a parallel sweep is
// bit-identical to the serial one. It holds because each experiment is
// fully isolated:
//   * every experiment builds its own Network, which owns the Simulator
//     clock/event queue and the seed-derived RNG stream (NetConfig::seed);
//   * run_experiment() keeps no mutable static state (the historical
//     thread_local CDF holder is now owned by the per-experiment Runtime);
//   * the shared workload CDF tables are immutable after construction, and
//     the log level is an atomic read.
// Results are written into per-slot storage indexed by submission order, so
// the scheduling interleaving cannot reorder or perturb anything the caller
// sees.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/experiment.h"

namespace dcpim::harness {

struct SweepOptions {
  /// Worker threads, the calling thread included. <= 1 runs every cell on
  /// the calling thread (no thread is spawned); experiments never span
  /// threads either way.
  int jobs = 1;
  /// Invoked after each experiment completes with (done, total). Calls are
  /// serialized by run_sweep but may come from worker threads; keep it
  /// cheap and do not print to stdout if byte-identical output matters
  /// (bench progress/ETA lines go to stderr for exactly that reason).
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Invoked after each successful experiment with its submission index and
  /// result, under the same serialization as `progress` (so callers may
  /// journal or aggregate without their own lock). Not called for
  /// experiments that threw. Completion order, not submission order.
  std::function<void(std::size_t index, const ExperimentResult& result)>
      on_result;
};

/// Runs every config (concurrently when jobs > 1) and returns results in
/// submission order. If any experiment throws, the first exception in
/// submission order is rethrown after the whole sweep settles. A callback
/// that throws fails the cell it was called for in the same way.
std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs,
    const SweepOptions& options = {});

/// std::thread::hardware_concurrency() with a floor of 1 (the standard
/// allows it to return 0 when undetectable); `--jobs 0` means this many.
int hardware_threads();

}  // namespace dcpim::harness
