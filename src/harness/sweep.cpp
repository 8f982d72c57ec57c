#include "harness/sweep.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "util/mutex.h"

namespace dcpim::harness {

namespace {

/// The only state the workers share. Everything else a worker writes is the
/// results/errors slot of the cell it claimed.
struct CellCounter {
  util::Mutex mu;
  std::size_t next DCPIM_GUARDED_BY(mu) = 0;  ///< first unclaimed cell
  std::size_t done DCPIM_GUARDED_BY(mu) = 0;  ///< cells that have settled
};

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs,
    const SweepOptions& options) {
  const std::size_t total = configs.size();
  std::vector<ExperimentResult> results(total);
  std::vector<std::exception_ptr> errors(total);
  CellCounter counter;

  const auto work = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        util::MutexLock lk(counter.mu);
        if (counter.next == total) return;
        i = counter.next++;
      }
      try {
        results[i] = run_experiment(configs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      // The callbacks run under the lock: sweep.h promises them serialized,
      // and progress sees `done` count 1..N in order. One that throws fails
      // its cell like a throwing experiment instead of ending the thread.
      util::MutexLock lk(counter.mu);
      ++counter.done;
      try {
        if (!errors[i] && options.on_result) options.on_result(i, results[i]);
        if (options.progress) options.progress(counter.done, total);
      } catch (...) {
        if (!errors[i]) errors[i] = std::current_exception();
      }
    }
  };

  {
    // The calling thread is one of the workers, so jobs <= 1 spawns none.
    const std::size_t workers =
        std::min(static_cast<std::size_t>(std::max(options.jobs, 1)), total);
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(work);
    work();
  }  // each jthread joins here: the happens-before edge for every slot write

  for (std::size_t i = 0; i < total; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

}  // namespace dcpim::harness
