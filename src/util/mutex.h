// Annotated synchronization wrappers (DESIGN.md §12).
//
// Thin shims over std::mutex that carry clang thread-safety capabilities, so
// -Wthread-safety can prove lock discipline at compile time. Zero overhead:
// every method is an inline forward.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace dcpim::util {

class DCPIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DCPIM_ACQUIRE() { mu_.lock(); }
  void unlock() DCPIM_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock; the scoped capability tells the analysis the protected
/// region spans this object's lifetime.
class DCPIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DCPIM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DCPIM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace dcpim::util
