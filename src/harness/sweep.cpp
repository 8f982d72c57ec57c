#include "harness/sweep.h"

#include <algorithm>
#include <exception>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace dcpim::harness {

std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs,
    const SweepOptions& options) {
  const std::size_t total = configs.size();
  std::vector<ExperimentResult> results(total);
  std::vector<std::exception_ptr> errors(total);
  std::size_t done = 0;

  const int jobs = std::min<int>(
      options.jobs, static_cast<int>(std::max<std::size_t>(total, 1)));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      try {
        results[i] = run_experiment(configs[i]);
        if (options.on_result) options.on_result(i, results[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      ++done;
      if (options.progress) options.progress(done, total);
    }
  } else {
    util::Mutex progress_mu;  // serializes `done` and the progress callback
    util::ThreadPool pool(jobs);
    for (std::size_t i = 0; i < total; ++i) {
      pool.submit([&options, &configs, &results, &errors, &progress_mu, &done,
                   total, i] {
        bool succeeded = false;
        try {
          results[i] = run_experiment(configs[i]);
          succeeded = true;
        } catch (...) {
          errors[i] = std::current_exception();
        }
        util::MutexLock lk(progress_mu);
        if (succeeded && options.on_result) options.on_result(i, results[i]);
        ++done;
        if (options.progress) options.progress(done, total);
      });
    }
    pool.wait_idle();  // happens-before: makes results[] writes visible
  }

  for (std::size_t i = 0; i < total; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

}  // namespace dcpim::harness
