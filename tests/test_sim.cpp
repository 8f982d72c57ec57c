// Unit tests: discrete-event simulator ordering, stop/resume, counters.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dcpim::sim
