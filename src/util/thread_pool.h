// Work-stealing thread pool for running independent simulations in
// parallel (harness/sweep.h is the main client).
//
// Design: every worker owns a deque of tasks. submit() deals tasks
// round-robin across the deques; a worker pops work from the *front* of its
// own deque and, when that runs dry, steals from the *back* of a victim's
// deque (classic work-stealing: owner and thieves touch opposite ends, so a
// long-running stolen task does not block the victim's local progress).
// Experiment sweeps produce a handful of coarse tasks (whole packet-level
// simulations, milliseconds to seconds each), so the deques are plain
// mutex-protected containers rather than lock-free Chase-Lev arrays — the
// per-task locking cost is noise and the implementation stays trivially
// TSan-clean.
//
// Determinism contract: the pool imposes NO ordering on task side effects;
// callers that need reproducible output must make tasks independent (no
// shared mutable state) and index results by submission slot, exactly what
// harness::run_sweep does. Nothing in the pool consults wall-clock time
// or unseeded randomness.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/unique_function.h"

namespace dcpim::util {

class ThreadPool {
 public:
  using Task = UniqueFunction<void()>;

  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains: blocks until every submitted task has finished, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; may be called from worker threads.
  void submit(Task task);

  /// Blocks until every task submitted so far has finished executing.
  /// Establishes happens-before with the completed tasks, so results they
  /// wrote are safely visible to the caller.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when undetectable).
  static int hardware_threads();

 private:
  /// One worker's deque. The owner pops from the front; thieves pop from
  /// the back.
  struct WorkQueue {
    Mutex mu;
    std::deque<Task> tasks DCPIM_GUARDED_BY(mu);
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, Task& out);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;

  // Coordination: mu_ guards the counters and flags below (checked by
  // clang -Wthread-safety via the GUARDED_BY annotations); queued_ counts
  // tasks sitting in deques (sleep/wake signal), unfinished_ counts tasks
  // submitted but not yet completed (wait_idle signal).
  Mutex mu_;
  CondVar work_cv_;  ///< workers sleep here when starved
  CondVar idle_cv_;  ///< wait_idle()/destructor sleep here
  std::size_t queued_ DCPIM_GUARDED_BY(mu_) = 0;
  std::size_t unfinished_ DCPIM_GUARDED_BY(mu_) = 0;
  std::size_t next_queue_ DCPIM_GUARDED_BY(mu_) = 0;  ///< round-robin cursor
  bool stop_ DCPIM_GUARDED_BY(mu_) = false;
};

}  // namespace dcpim::util
