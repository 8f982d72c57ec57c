// Discrete-event simulation core.
//
// A Simulator owns a time-ordered event queue. Events are either arbitrary
// callbacks or typed events for a registered EventTarget, scheduled at
// absolute or relative times; ties are broken by scheduling order so runs
// are fully deterministic.
//
// Implementation: every queued event is a 16-byte {time, key} entry. The
// key packs the scheduling sequence number above a 2-bit tag and a 24-bit
// index (event_key below), so ordering entries by (time, key) is ordering
// them by (time, seq). Tag 0 marks a callback and the index is its slot in
// a callback slab; keeping the callbacks out of the queue keeps every move
// trivially cheap, while the CallbackSlab gives each callback a stable
// home. UniqueFunction stores small callables inline (SBO), a scheduled
// callback moves into a recycled slab slot, and the run loop threads the
// slot back onto the slab's intrusive free list the moment the event fires
// (eager retire, so captured resources such as data packets are freed at
// end-of-event). Tags 1 and 2 mark typed events of kind 0 and 1, and the
// index is the target's id: the per-hop port events (serialization done,
// arrival) take this path, so they never touch the slab and run as one
// virtual call. There is no cancellation: transports that retire a timer
// let it fire and discard it with a staleness check, so every pop is live.
//
// Delay lanes: nearly every event lands a fixed delay after now() — a
// link's propagation plus its receiver's latency, or a packet size's
// serialization time at a link rate. kDelayLanes FIFO lanes each hold the
// entries pushed with one delay. Pushes happen at non-decreasing now() and
// take increasing keys, so each lane is already sorted by (time, key): a
// lane is a ring, not a heap. Everything else goes to a 4-ary min-heap. A
// pop takes the least of the lane heads and the heap top, which is exactly
// the (time, seq) order one heap would give (DESIGN.md §13). After the
// first few simulated RTTs the per-event path allocates nothing at all.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/ring.h"
#include "util/check.h"
#include "util/time.h"
#include "util/unique_function.h"

namespace dcpim::sim {

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

/// Delay lanes per Simulator: enough for the fabric's fixed delays (two
/// propagation-plus-latency sums, the MTU and control-packet serialization
/// times at two link rates) with room to spare.
inline constexpr std::size_t kDelayLanes = 8;

inline constexpr int kEventIndexBits = 24;
inline constexpr int kEventSeqShift = kEventIndexBits + 2;

/// Packs an event's heap key: `seq` in the high 38 bits above a 2-bit `tag`
/// and a 24-bit `index`. `seq` is unique per event, so keys order exactly
/// like their sequence numbers. DCPIM_CHECKs (in every build type) that the
/// fields fit — 2^24 live callbacks or registered targets, 2^38 scheduled
/// events per Simulator.
inline std::uint64_t event_key(std::uint64_t seq, std::uint32_t tag,
                               std::uint32_t index) {
  DCPIM_CHECK(index < (std::uint32_t{1} << kEventIndexBits),
              "event slot or target index overflows 24 bits");
  DCPIM_CHECK(seq < (std::uint64_t{1} << (64 - kEventSeqShift)),
              "event sequence number overflows 38 bits");
  return seq << kEventSeqShift | std::uint64_t{tag} << kEventIndexBits | index;
}

/// The queue's order key of an event at `t` with key `key`: the time in
/// the high 64 bits above the key, so one unsigned compare orders events by
/// (time, seq). Queued times are never negative (nothing is scheduled
/// before now(), which starts at 0), so the unsigned time keeps its order.
inline unsigned __int128 event_order(TimePoint t, std::uint64_t key) {
  const auto ps = static_cast<std::uint64_t>(t.since_start() / kPicosecond);
  return static_cast<unsigned __int128>(ps) << 64 | key;
}

/// Receiver of typed events: a Simulator-registered object whose events
/// carry no callback, only a kind (0 or 1) that on_event() dispatches on.
/// Registration assigns the id the heap key stores; a target must outlive
/// every event scheduled for it that runs.
class EventTarget {
 public:
  virtual void on_event(unsigned kind) = 0;

 protected:
  EventTarget() = default;
  ~EventTarget() = default;
  EventTarget(const EventTarget&) = delete;
  EventTarget& operator=(const EventTarget&) = delete;

 private:
  friend class Simulator;
  static constexpr std::uint32_t kUnregistered = UINT32_MAX;
  std::uint32_t target_id_ = kUnregistered;
};

class Simulator {
 public:
  using Callback = UniqueFunction<void()>;

  Simulator() {
    lane_head_.fill(kNoEntry);
    lane_delay_.fill(Time{-1});  // no event has a negative delay
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t`; DCPIM_CHECKs t >= now().
  void schedule_at(TimePoint t, Callback cb);

  /// Registers `target` for typed events; call once, before scheduling any.
  void register_target(EventTarget& target);

  /// Schedules `target.on_event(kind)` (kind 0 or 1) at absolute time `t`
  /// (DCPIM_CHECKed >= now()), in the same FIFO tie order as callbacks.
  void schedule_at(TimePoint t, EventTarget& target, unsigned kind);

  /// Schedules `cb` `delay` after now().
  void schedule_after(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Runs events until the queue drains, `until` is passed, or stop().
  /// Events scheduled exactly at `until` still execute.
  void run(TimePoint until = kTimePointInfinity);

  /// Stops the run() loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently queued, in the lanes and the heap.
  std::size_t pending() const { return queued_; }

  /// Most events queued at once since construction.
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Entry {
    TimePoint t{};
    std::uint64_t key = 0;  ///< event_key(seq, tag, index): seq is the tie-break
    bool before(const Entry& o) const {
      return event_order(t, key) < event_order(o.t, o.key);
    }
  };
  static_assert(sizeof(Entry) == 16, "queue entries are {time, key}");
  /// Head of an empty lane: after every real entry, since no event_key is
  /// all ones (the tag never reaches 3).
  static constexpr Entry kNoEntry{kTimePointInfinity, UINT64_MAX};

  /// Queues `e` on the lane of its delay, else — if `typed` — on an empty
  /// lane it claims, else on the heap.
  void push(Entry e, bool typed);
  /// The lane whose head comes first (a sentinel head when all are empty).
  std::size_t first_lane() const;
  Entry lane_pop(std::size_t lane);
  void heap_push(Entry e);
  Entry heap_pop();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::size_t queued_ = 0;  ///< entries in the lanes and the heap
  std::size_t peak_pending_ = 0;
  /// Lane i holds entries pushed exactly lane_delay_[i] after their now():
  /// its head in lane_head_[i] (kNoEntry when empty), the rest in order in
  /// lane_rest_[i]. No two lanes share a delay.
  std::array<Entry, kDelayLanes> lane_head_;
  std::array<Time, kDelayLanes> lane_delay_;
  std::array<Ring<Entry>, kDelayLanes> lane_rest_;
  std::vector<Entry> heap_;  ///< every event no lane took
  CallbackSlab slab_;  ///< callback storage; tag-0 entries index it
  std::vector<EventTarget*> targets_;  ///< by id; tag-1/2 entries index it
};

}  // namespace dcpim::sim
