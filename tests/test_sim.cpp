// Unit tests: discrete-event simulator ordering, stop/resume, counters,
// typed events and the heap-key bounds.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"

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

TEST(SimulatorTest, KeyedEventsFireAtTheirTime) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  TimePoint seen = kTimeUnset;
  sim.schedule_at(TimePoint(us(1)), [&]() {
    sim.schedule_keyed(TimePoint(us(1)) + ns(250), sim.reserve_key(x, 1));
    sim.schedule_at(TimePoint(us(1)) + ns(250), [&]() { seen = sim.now(); });
  });
  sim.run(TimePoint(us(1)));
  EXPECT_EQ(sim.pending(), 2u);  // typed and callback events both count
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x1"}));
  EXPECT_EQ(seen, TimePoint(us(1)) + ns(250));
}

TEST(SimulatorTest, ReservedKeyBreaksTiesAsOfItsReservation) {
  // A key reserved before a same-instant callback was scheduled fires
  // first even when it is queued after that callback — the delay-line
  // case, where an arrival's key is taken at serialization end and queued
  // only when the arrival ahead of it fires.
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  const TimePoint t(us(5));
  const std::uint64_t early = sim.reserve_key(x, 1);
  sim.schedule_at(t, [&]() { log.push_back("cb"); });
  sim.schedule_at(TimePoint(us(3)), [&]() { sim.schedule_keyed(t, early); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x1", "cb"}));
}

TEST(SimulatorTest, KeyReservedAfterACallbackFiresAfterIt) {
  Simulator sim;
  std::vector<std::string> log;
  LogTarget x("x", log);
  sim.register_target(x);
  const TimePoint t(us(5));
  sim.schedule_at(t, [&]() { log.push_back("cb"); });
  const std::uint64_t late = sim.reserve_key(x, 1);
  sim.schedule_at(TimePoint(us(3)), [&]() { sim.schedule_keyed(t, late); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"cb", "x1"}));
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
