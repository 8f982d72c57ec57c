// FIFO in a power-of-two ring: the one queue shape of the per-event path.
//
// A Port's priority queues and in-flight packets, and the Simulator's delay
// lanes, are all FIFOs that only ever push at the back and pop at the
// front. A Ring allocates nothing until its first push, then doubles when
// full and never shrinks, so once each ring has seen its peak backlog the
// steady state allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "util/check.h"

namespace dcpim::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return head_ == tail_; }
  std::uint32_t size() const { return tail_ - head_; }
  void push(T v) {
    if (size() == cap_) grow();
    slots_[tail_++ & (cap_ - 1)] = std::move(v);
  }
  T pop() {
    DCPIM_DCHECK(!empty(), "pop from an empty ring");
    return std::move(slots_[head_++ & (cap_ - 1)]);
  }
  const T& front() const {
    DCPIM_DCHECK(!empty(), "front of an empty ring");
    return slots_[head_ & (cap_ - 1)];
  }
  void clear() {
    while (!empty()) pop();
  }

 private:
  void grow();
  std::unique_ptr<T[]> slots_;
  std::uint32_t head_ = 0;  ///< free-running; masked on access
  std::uint32_t tail_ = 0;
  std::uint32_t cap_ = 0;  ///< 0 or a power of two
};

template <typename T>
void Ring<T>::grow() {
  const std::uint32_t cap = cap_ == 0 ? 4 : 2 * cap_;
  // sa-ok(hot-alloc): ring growth stops at the ring's peak backlog — the
  // ring doubles, never shrinks, and steady state reuses its slots.
  auto slots = std::make_unique<T[]>(cap);
  for (std::uint32_t i = 0; i < cap_; ++i) {
    slots[i] = std::move(slots_[(head_ + i) & (cap_ - 1)]);
  }
  slots_ = std::move(slots);
  head_ = 0;
  tail_ = cap_;
  cap_ = cap;
}

}  // namespace dcpim::sim
