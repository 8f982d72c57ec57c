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

/// Heap arity. 4-ary halves the tree depth of a binary heap and keeps all
/// children of a node inside one cache line of 16-byte entries —
/// the sift-down in heap_pop() was the single hottest function in the
/// profile when this was binary. The pop order is arity-independent:
/// Entry::before is a strict total order (seqs are unique tie-breakers), so
/// the simulation replays identically for any heap shape — the perf
/// basket's fingerprint check proves it.
constexpr std::size_t kHeapArity = 4;

/// Heap-key tags (event_key): a slab callback, or typed kind 0 / kind 1.
constexpr std::uint32_t kCallbackTag = 0;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kEventIndexBits) - 1;

}  // namespace

void Simulator::heap_push(Entry e) {
  // sa-ok(hot-alloc): vector growth is amortized and the heap reaches its
  // steady-state capacity within the first few simulated RTTs.
  heap_.push_back(e);  // placeholder; the hole-sift below places `e`
  std::size_t i = heap_.size() - 1;
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
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
  heap_push(Entry{
      t, event_key(next_seq_++, kCallbackTag, slab_.store(std::move(cb)))});
}

void Simulator::register_target(EventTarget& target) {
  DCPIM_CHECK(target.target_id_ == EventTarget::kUnregistered,
              "event target registered twice");
  target.target_id_ = static_cast<std::uint32_t>(targets_.size());
  targets_.push_back(&target);
}

void Simulator::schedule_at(TimePoint t, EventTarget& target, unsigned kind) {
  schedule_keyed(t, reserve_key(target, kind));
}

// sa-hot: once per packet hop (Port serialization end).
std::uint64_t Simulator::reserve_key(EventTarget& target, unsigned kind) {
  DCPIM_DCHECK(kind <= 1, "typed events have kind 0 or 1");
  DCPIM_DCHECK(target.target_id_ < targets_.size() &&
                   targets_[target.target_id_] == &target,
               "event target not registered with this simulator");
  return event_key(next_seq_++, kCallbackTag + 1 + kind, target.target_id_);
}

// sa-hot: every typed event, and each delay-line arrival, is queued here.
void Simulator::schedule_keyed(TimePoint t, std::uint64_t key) {
  DCPIM_CHECK_GE(t, now_, "cannot schedule into the past");
  DCPIM_DCHECK((key >> kEventIndexBits & 3u) != kCallbackTag,
               "schedule_keyed takes a key from reserve_key()");
  heap_push(Entry{t, key});
}

// sa-hot: the event loop proper — every simulated event passes through.
void Simulator::run(TimePoint until) {
  check_detail::ScopedSimTimeSource time_source(this, &sim_now_for_checks);
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) {
    const Entry entry = heap_pop();
    if (entry.t > until) {
      // Put it back; caller may resume later (its slab slot is untouched).
      heap_push(entry);
      now_ = until;
      return;
    }
    // Event-time monotonicity: a pop that travels backwards in time means
    // the heap ordering (or a callback that mutated an entry) is corrupt —
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
    // above all pooled PacketPtrs, return to their owners at end-of-event,
    // never lingering until the next pop.
    Callback cb = slab_.take(index);
    cb();
  }
  if (!stopped_ && until != kTimePointInfinity) now_ = until;
}

}  // namespace dcpim::sim
