#include "sim/simulator.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace dcpim::sim {

namespace {

/// Adapter so DCPIM_CHECK failures anywhere in the stack can report the
/// simulated time at which the invariant broke (see util/check.h).
std::int64_t sim_now_for_checks(const void* ctx) {
  // sa-ok(unit-raw): check.h's failure-message hook is unit-agnostic by design
  return static_cast<const Simulator*>(ctx)->now().raw();
}

}  // namespace

namespace {

/// Heap arity (the heap holds the events no delay lane took). 4-ary halves
/// the tree depth of a binary heap and keeps all children of a node inside
/// one cache line of 16-byte entries — the sift-down in heap_pop() was the
/// single hottest function in the profile when this was binary. The pop
/// order is arity-independent: Entry::before is a strict total order (seqs
/// are unique tie-breakers), so the simulation replays identically for any
/// heap shape — the perf basket's fingerprint check proves it.
constexpr std::size_t kHeapArity = 4;

/// Key tags (event_key): a slab callback, or typed kind 0 / kind 1.
constexpr std::uint32_t kCallbackTag = 0;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kEventIndexBits) - 1;

}  // namespace

// sa-hot: every event is queued here.
void Simulator::push(Entry e, bool typed) {
  ++queued_;
  if (queued_ > peak_pending_) peak_pending_ = queued_;
  const Time delay = e.t - now_;
  std::size_t lane = 0;
  while (lane < kDelayLanes && lane_delay_[lane] != delay) ++lane;
  if (lane == kDelayLanes && typed) {
    // A callback never claims a lane: protocol timers have long delays
    // and would hold a lane for all of one.
    lane = 0;
    while (lane < kDelayLanes && lane_head_[lane].key != kNoEntry.key) ++lane;
    if (lane < kDelayLanes) lane_delay_[lane] = delay;
  }
  if (lane == kDelayLanes) {
    heap_push(e);
  } else if (lane_head_[lane].key == kNoEntry.key) {
    lane_head_[lane] = e;
  } else {
    lane_rest_[lane].push(e);
  }
}

std::size_t Simulator::first_lane() const {
  static_assert(kDelayLanes == 8, "the lane argmin is an 8-way tournament");
  const auto& h = lane_head_;
  const auto pick = [&h](std::size_t a, std::size_t b) {
    return h[b].before(h[a]) ? b : a;
  };
  return pick(pick(pick(0, 1), pick(2, 3)), pick(pick(4, 5), pick(6, 7)));
}

// sa-hot: every event that a lane queued leaves it here.
Simulator::Entry Simulator::lane_pop(std::size_t lane) {
  const Entry e = lane_head_[lane];
  Ring<Entry>& rest = lane_rest_[lane];
  lane_head_[lane] = rest.empty() ? kNoEntry : rest.pop();
  return e;
}

void Simulator::heap_push(Entry e) {
  // sa-ok(hot-alloc): vector growth is amortized and the heap reaches its
  // steady-state capacity within the first few simulated RTTs.
  heap_.push_back(e);  // placeholder; the hole-sift below places `e`
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];  // hole sift: one move per level, no swaps
    i = parent;
  }
  heap_[i] = e;
}

Simulator::Entry Simulator::heap_pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  while (true) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t smallest = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[smallest])) smallest = c;
    }
    if (!heap_[smallest].before(last)) break;
    heap_[i] = heap_[smallest];  // hole sift: one move per level
    i = smallest;
  }
  heap_[i] = last;
  return top;
}

void Simulator::schedule_at(TimePoint t, Callback cb) {
  DCPIM_CHECK_GE(t, now_, "cannot schedule into the past");
  const std::uint32_t slot = slab_.store(std::move(cb));
  push(Entry{t, event_key(next_seq_++, kCallbackTag, slot)}, /*typed=*/false);
}

void Simulator::register_target(EventTarget& target) {
  DCPIM_CHECK(target.target_id_ == EventTarget::kUnregistered,
              "event target registered twice");
  target.target_id_ = static_cast<std::uint32_t>(targets_.size());
  targets_.push_back(&target);
}

// sa-hot: twice per packet hop (Port serialization end and arrival).
void Simulator::schedule_at(TimePoint t, EventTarget& target, unsigned kind) {
  DCPIM_CHECK_GE(t, now_, "cannot schedule into the past");
  DCPIM_DCHECK(kind <= 1, "typed events have kind 0 or 1");
  DCPIM_DCHECK(target.target_id_ < targets_.size() &&
                   targets_[target.target_id_] == &target,
               "event target not registered with this simulator");
  push(Entry{t, event_key(next_seq_++, kCallbackTag + 1 + kind,
                          target.target_id_)},
       /*typed=*/true);
}

// sa-hot: the event loop proper — every simulated event passes through.
void Simulator::run(TimePoint until) {
  check_detail::ScopedSimTimeSource time_source(this, &sim_now_for_checks);
  stopped_ = false;
  while (!stopped_ && queued_ != 0) {
    const std::size_t lane = first_lane();
    const bool from_heap =
        !heap_.empty() && heap_.front().before(lane_head_[lane]);
    if ((from_heap ? heap_.front() : lane_head_[lane]).t > until) {
      // Left queued; the caller may resume later.
      now_ = until;
      return;
    }
    const Entry entry = from_heap ? heap_pop() : lane_pop(lane);
    --queued_;
    // Event-time monotonicity: a pop that travels backwards in time means
    // the queue ordering (or a callback that mutated an entry) is corrupt —
    // every downstream latency/FCT number would be garbage.
    DCPIM_CHECK_GE(entry.t, now_, "event queue is not time-ordered");
    now_ = entry.t;
    ++executed_;
    const auto index = static_cast<std::uint32_t>(entry.key & kIndexMask);
    const auto tag =
        static_cast<std::uint32_t>(entry.key >> kEventIndexBits) & 3u;
    if (tag != kCallbackTag) {
      targets_[index]->on_event(tag - 1);
      continue;
    }
    // slab_.take() recycles the slab slot *before* invoking, so an event
    // that schedules follow-ups re-uses the very slot it just vacated.
    // `cb` is destroyed at the end of this iteration — captured resources,
    // above all PacketPtrs, are freed at end-of-event, never lingering
    // until the next pop.
    Callback cb = slab_.take(index);
    cb();
  }
  if (!stopped_ && until != kTimePointInfinity) now_ = until;
}

}  // namespace dcpim::sim
