// Unit tests: discrete-event simulator ordering, stop/resume, counters,
// typed events, the delay lanes and the event-key bounds.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace dcpim::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(3)), [&]() { order.push_back(3); });
  sim.schedule_at(TimePoint(us(1)), [&]() { order.push_back(1); });
  sim.schedule_at(TimePoint(us(2)), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint(us(1)), [&, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen = kTimeUnset;
  sim.schedule_at(TimePoint(us(7)), [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint(us(7)));
  EXPECT_EQ(sim.now(), TimePoint(us(7)));
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  TimePoint seen = kTimeUnset;
  sim.schedule_at(TimePoint(us(5)), [&]() {
    sim.schedule_after(us(2), [&]() { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, TimePoint(us(7)));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndResumes) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(1)), [&]() { order.push_back(1); });
  sim.schedule_at(TimePoint(us(10)), [&]() { order.push_back(10); });
  sim.run(TimePoint(us(5)));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), TimePoint(us(5)));
  sim.run(TimePoint(us(20)));
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(SimulatorTest, EventExactlyAtUntilRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(TimePoint(us(5)), [&]() { ran = true; });
  sim.run(TimePoint(us(5)));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopHaltsLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint(us(1)), [&]() {
    ++count;
    sim.stop();
  });
  sim.schedule_at(TimePoint(us(2)), [&]() { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, SelfPerpetuatingChainBoundedByUntil) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    sim.schedule_after(us(1), [&]() { tick(); });
  };
  sim.schedule_at(TimePoint{}, [&]() { tick(); });
  sim.run(TimePoint(us(100)));
  EXPECT_EQ(ticks, 101);  // t = 0..100 inclusive
}

TEST(SimulatorTest, CountsExecutedAndPending) {
  Simulator sim;
  sim.schedule_at(TimePoint(us(1)), []() {});
  sim.schedule_at(TimePoint(us(2)), []() {});
  sim.schedule_at(TimePoint(us(3)), []() {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.run(TimePoint(us(2)));  // stops early: the us(3) event stays queued
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Typed-event target that logs each event as "<name><kind>".
class LogTarget final : public EventTarget {
 public:
  LogTarget(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}
  void on_event(unsigned kind) override {
    log_.push_back(name_ + std::to_string(kind));
  }

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

TEST(SimulatorTest, CallbackAndTypedEventsTieInScheduleOrder) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  LogTarget y("y", log);
  sim.register_target(x);
  sim.register_target(y);
  const TimePoint t(us(4));
  sim.schedule_at(t, [&]() { log.push_back("cb0"); });
  sim.schedule_at(t, y, 1);
  sim.schedule_at(t, [&]() { log.push_back("cb1"); });
  sim.schedule_at(t, x, 0);
  sim.schedule_at(t, x, 1);
  sim.schedule_at(TimePoint(us(3)), y, 0);  // earlier time still goes first
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"y0", "cb0", "y1", "cb1", "x0",
                                           "x1"}));
  EXPECT_EQ(sim.events_executed(), 6u);
}

/// Differential check of the event queue: every event the simulator runs
/// must be the least pending (time, schedule order) pair of a reference
/// ordered set, whichever lane or heap the simulator queued it on.
class ReferenceQueue {
 public:
  using Key = std::tuple<TimePoint, std::uint64_t, int>;  ///< (t, seq, who)

  /// Records that the event `who` was just scheduled at `t`.
  void scheduled(TimePoint t, int who) { pending_.emplace(t, seq_++, who); }

  /// Checks that `who` firing at `now` is the least pending event.
  void fired(TimePoint now, int who) {
    ASSERT_FALSE(pending_.empty());
    const auto [t, seq, expected] = *pending_.begin();
    EXPECT_EQ(now, t);
    EXPECT_EQ(who, expected) << "seq " << seq;
    pending_.erase(pending_.begin());
  }

  std::size_t size() const { return pending_.size(); }

 private:
  std::set<Key> pending_;
  std::uint64_t seq_ = 0;
};

/// Typed target that reports each firing to the test as `base + kind`.
class ForwardTarget final : public EventTarget {
 public:
  ForwardTarget(int base, std::function<void(int)> fire)
      : base_(base), fire_(std::move(fire)) {}
  void on_event(unsigned kind) override {
    fire_(base_ + static_cast<int>(kind));
  }

 private:
  int base_;
  std::function<void(int)> fire_;
};

TEST(SimulatorTest, LanesAndHeapPopInTimeThenScheduleOrder) {
  // 13 distinct delays, 0 among them, against 8 lanes: typed events claim
  // lanes, callbacks join a lane only when one has their delay, and the
  // rest go to the heap. Events spawn events, run(until) pauses and stop()
  // interrupts; the pop order must stay exactly (time, schedule order).
  const std::vector<Time> delays = {
      Time{},  ps(1),    ps(999),  ns(1.28), ns(5.12), ns(30),  ns(120),
      ns(650), ns(700),  us(2),    us(13),   us(31),   us(106)};
  static_assert(kDelayLanes < 13, "some delays must fall back to the heap");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Simulator sim;
    ReferenceQueue ref;
    Rng rng(seed);
    int scheduled = 0;
    std::vector<std::unique_ptr<ForwardTarget>> targets;
    // Events are numbered: 2 * target + kind for typed ones, and from
    // kFirstCallback up for callbacks.
    constexpr int kTargets = 6;
    constexpr int kFirstCallback = 2 * kTargets;
    std::function<void()> schedule_one;
    auto fire = [&](int who) {
      ref.fired(sim.now(), who);
      if (rng.uniform_int(100) == 0) sim.stop();
      const std::uint64_t spawn = rng.uniform_int(3);  // mean 1: steady load
      for (std::uint64_t i = 0; i < spawn && scheduled < 20000; ++i) {
        schedule_one();
      }
    };
    for (int i = 0; i < kTargets; ++i) {
      targets.push_back(std::make_unique<ForwardTarget>(2 * i, fire));
      sim.register_target(*targets.back());
    }
    schedule_one = [&]() {
      const TimePoint t = sim.now() + delays[rng.uniform_int(delays.size())];
      if (rng.uniform_int(2) == 0) {
        const auto target = rng.uniform_int(kTargets);
        const auto kind = static_cast<unsigned>(rng.uniform_int(2));
        sim.schedule_at(t, *targets[target], kind);
        ref.scheduled(t, static_cast<int>(2 * target + kind));
      } else {
        const int who = kFirstCallback + scheduled;
        sim.schedule_at(t, [&fire, who]() { fire(who); });
        ref.scheduled(t, who);
      }
      ++scheduled;
    };
    for (int i = 0; i < 64; ++i) schedule_one();
    TimePoint until{};
    while (sim.pending() != 0) {
      EXPECT_EQ(sim.pending(), ref.size());
      until += ns(500);
      sim.run(until);
      // After a pause (not a stop) the clock sits at the boundary; either
      // way, events scheduled from outside the loop join the same order.
      if (rng.uniform_int(4) == 0 && scheduled < 20000) schedule_one();
    }
    EXPECT_EQ(ref.size(), 0u);
    EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(scheduled));
    EXPECT_GT(scheduled, 10000);
  }
}

TEST(SimulatorTest, TypedEventsBeyondTheLanesFallBackToTheHeap) {
  // Twelve typed events, each with its own delay, all queued at once: the
  // first eight delays claim the lanes and the last four find none free.
  // Each has a callback at its instant, scheduled right after it (so it
  // joins the typed event's lane or the heap). Scheduled longest delay
  // first, so the time order is the reverse.
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  std::vector<TimePoint> fired;
  constexpr int kDelays = 12;
  static_assert(kDelays > static_cast<int>(kDelayLanes));
  for (int i = kDelays; i >= 1; --i) {
    sim.schedule_at(TimePoint(ns(10 * i)), x, 0);
    sim.schedule_at(TimePoint(ns(10 * i)), [&]() {
      log.push_back("cb");
      fired.push_back(sim.now());
    });
  }
  EXPECT_EQ(sim.pending(), 2u * kDelays);
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kDelays));
  std::vector<std::string> expected;
  for (int i = 0; i < kDelays; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], TimePoint(ns(10 * (i + 1))));
    expected.insert(expected.end(), {"x0", "cb"});
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.events_executed(), 2u * kDelays);
}

TEST(SimulatorTest, PendingCountsLaneAndHeapEntries) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  // Two typed events share a lane; a callback with that delay joins it.
  sim.schedule_at(TimePoint(ns(120)), x, 0);
  sim.schedule_at(TimePoint(ns(120)), x, 1);
  sim.schedule_at(TimePoint(ns(120)), [] {});
  // A callback with a delay no lane has goes to the heap.
  sim.schedule_at(TimePoint(us(106)), [] {});
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.peak_pending(), 4u);
  sim.run(TimePoint(ns(120)));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(log, (std::vector<std::string>{"x0", "x1"}));
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(SimulatorTest, PeakPendingIsTheMostEverQueued) {
  Simulator sim;
  EXPECT_EQ(sim.peak_pending(), 0u);
  for (int i = 1; i <= 3; ++i) sim.schedule_at(TimePoint(us(i)), []() {});
  sim.run(TimePoint(us(2)));
  sim.schedule_at(TimePoint(us(4)), []() {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.peak_pending(), 3u);
}

TEST(SimulatorTest, EventKeysOrderBySeq) {
  // seq sits above the tag and index, so a later seq wins regardless of
  // the low fields.
  EXPECT_LT(event_key(6, 2, (1u << 24) - 1), event_key(7, 0, 0));
  EXPECT_EQ(event_key(1, 2, 5) >> kEventSeqShift, 1u);
}

TEST(SimulatorTest, OrderKeyTiesBreakOnTheWholeEventKey) {
  const TimePoint t(us(3));
  // Equal times: the event key decides, seq first, then tag, then index.
  EXPECT_LT(event_order(t, event_key(4, 2, 9)), event_order(t, event_key(5, 0, 0)));
  EXPECT_LT(event_order(t, event_key(4, 0, 9)), event_order(t, event_key(4, 1, 0)));
  EXPECT_LT(event_order(t, event_key(4, 1, 2)), event_order(t, event_key(4, 1, 3)));
  EXPECT_EQ(event_order(t, event_key(4, 1, 3)), event_order(t, event_key(4, 1, 3)));
  // An earlier time wins over any key, by a picosecond too.
  const std::uint64_t top = event_key((std::uint64_t{1} << 38) - 1, 2,
                                      (1u << 24) - 1);
  EXPECT_LT(event_order(t, top), event_order(t + ps(1), event_key(0, 0, 0)));
}

TEST(SimulatorTest, OrderKeyAtTheEdgesOfTime) {
  // t = 0 with key 0 is the least order there is.
  EXPECT_EQ(event_order(TimePoint{}, 0), 0u);
  EXPECT_LT(event_order(TimePoint{}, 0), event_order(TimePoint{}, 1));
  EXPECT_LT(event_order(TimePoint{}, UINT64_MAX), event_order(TimePoint(ps(1)), 0));
  // An empty lane's head ({kTimePointInfinity, all-ones key}) sorts after
  // every real entry, also one at kTimePointInfinity: no event key is all
  // ones, because the tag never reaches 3.
  const auto sentinel = event_order(kTimePointInfinity, UINT64_MAX);
  const std::uint64_t top = event_key((std::uint64_t{1} << 38) - 1, 2,
                                      (1u << 24) - 1);
  EXPECT_LT(event_order(kTimePointInfinity, top), sentinel);
  EXPECT_LT(event_order(kTimePointInfinity - ps(1), UINT64_MAX), sentinel);
}

TEST(SimulatorTest, EventsAtTimeZeroAndAtTheHorizonRunInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(kTimePointInfinity, [&order] { order.push_back(3); });
  sim.schedule_at(TimePoint{}, [&order] { order.push_back(1); });
  sim.schedule_at(TimePoint{}, [&order] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), kTimePointInfinity);
}

TEST(SimulatorDeathTest, KeyIndexOverflowIsChecked) {
  EXPECT_DEATH(event_key(0, 0, 1u << 24), "overflows 24 bits");
  EXPECT_DEATH(event_key(std::uint64_t{1} << 38, 1, 0), "overflows 38 bits");
  // An unregistered target has no id that fits the key, in every build type.
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  EXPECT_DEATH(sim.schedule_at(TimePoint{}, x, 0),
               "not registered|overflows 24 bits");
}

TEST(SimulatorDeathTest, SchedulingIntoThePastIsChecked) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  sim.schedule_at(TimePoint(us(10)), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(TimePoint(us(5)), [] {}),
               "cannot schedule into the past");
  EXPECT_DEATH(sim.schedule_at(TimePoint(us(5)), x, 0),
               "cannot schedule into the past");
}

TEST(SimulatorDeathTest, TargetRegistersOnce) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  EXPECT_DEATH(sim.register_target(x), "registered twice");
}

}  // namespace
}  // namespace dcpim::sim
