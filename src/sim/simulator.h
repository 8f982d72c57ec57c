// Discrete-event simulation core.
//
// A Simulator owns a time-ordered event queue. Events are arbitrary
// callbacks scheduled at absolute or relative times; ties are broken by
// scheduling order so runs are fully deterministic.
//
// Implementation: a hand-rolled 4-ary min-heap of 24-byte {time, id, slot}
// entries plus a callback slab the slots index into. Keeping the callbacks
// out of the heap entries keeps every sift move trivially cheap (the heap
// array stays hot in cache and no type-erased move runs per swap), while
// the CallbackSlab gives each callback a stable home: UniqueFunction
// stores small callables inline (SBO), so the per-hop forwarding lambdas
// never touch the allocator — a scheduled callback moves into a recycled
// slab slot, and the run loop threads the slot back onto the slab's
// intrusive free list the moment the event fires (eager retire, so
// captured resources such as pooled packets release at end-of-event).
// After the first few simulated RTTs the slab reaches steady state and
// the per-event path allocates nothing at all. There is no cancellation:
// transports that retire a timer let it fire and discard it with a
// staleness check, so every pop is live and the per-event path is exactly
// one O(log n) sift each way.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/time.h"
#include "util/unique_function.h"

namespace dcpim::sim {

/// Proven-positive scheduling bound for events that cross a link — the
/// link's propagation delay. Constructible only from a strictly positive
/// Time, and with Time being integer picoseconds that means every Lookahead
/// is >= 1 ps: a schedule_remote() call can never land at the caller's own
/// instant. Port::link_lookahead() is the one construction site in src/
/// (DESIGN.md §15).
class Lookahead {
 public:
  explicit Lookahead(Time bound) : bound_(bound) {
    DCPIM_CHECK_GT(bound_, Time{}, "link lookahead must be positive");
  }
  Time bound() const { return bound_; }

 private:
  Time bound_;
};

/// Stable, recycled storage for scheduled callbacks, indexed by slot.
/// Deliberately a separate type from Simulator: these members are NOT the
/// event queue (no ordering, no sift) — they are a slab with an intrusive
/// free list threaded through retired slots, so take() allocates nothing
/// and store() allocates only while the slab is still growing toward the
/// peak event population.
class CallbackSlab {
 public:
  using Callback = UniqueFunction<void()>;

  /// Moves `cb` into a slot (recycled when possible) and returns its index.
  std::uint32_t store(Callback&& cb) {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].cb = std::move(cb);
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    // sa-ok(hot-alloc): slab growth stops at the peak event population —
    // every take() threads its slot back onto the intrusive free list, so
    // the steady-state per-event path never reaches this push.
    slots_.push_back(Slot{std::move(cb), kNoSlot});
    return slot;
  }

  /// Moves the callback out of `slot` and recycles the slot — popped-event
  /// callback storage is reused, never freed. The moved-from shell is
  /// destroyed eagerly so captured resources release now, not at reuse.
  Callback take(std::uint32_t slot) {
    Callback cb = std::move(slots_[slot].cb);
    slots_[slot].cb = Callback();
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    return cb;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  struct Slot {
    Callback cb;
    std::uint32_t next_free = kNoSlot;
  };
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

class Simulator {
 public:
  using Callback = UniqueFunction<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  void schedule_at(TimePoint t, Callback cb);

  /// Schedules `cb` `delay` after now().
  void schedule_after(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` across a link: fires `link.bound() + extra` after now().
  /// `extra` models receiver-side processing latency and may be zero; the
  /// positive link bound keeps the event strictly in the future.
  void schedule_remote(Lookahead link, Time extra, Callback cb) {
    DCPIM_CHECK_GE(extra, Time{}, "remote extra delay cannot be negative");
    schedule_at(now_ + link.bound() + extra, std::move(cb));
  }
  void schedule_remote(Lookahead link, Callback cb) {
    schedule_remote(link, Time{}, std::move(cb));
  }

  /// Runs events until the queue drains, `until` is passed, or stop().
  /// Events scheduled exactly at `until` still execute.
  void run(TimePoint until = kTimePointInfinity);

  /// Stops the run() loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    TimePoint t{};
    std::uint64_t seq = 0;   ///< scheduling order: the FIFO tie-break
    std::uint32_t slot = 0;  ///< index into slab_
    bool before(const Entry& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  void heap_push(Entry e);
  Entry heap_pop();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::vector<Entry> heap_;
  CallbackSlab slab_;  ///< callback storage; heap_ entries index into it
};

}  // namespace dcpim::sim
