// util/thread_pool.h: scheduling, work stealing, drain semantics, and the
// happens-before guarantees run_sweep builds on. These tests are also the
// TSan lane's canary for the pool itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dcpim {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  util::ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, PerSlotResultsNeedNoSynchronization) {
  // The run_sweep pattern: each task writes its own slot; wait_idle()
  // publishes the writes to the caller (this is what TSan verifies).
  util::ThreadPool pool(4);
  std::vector<int> results(64, -1);
  for (int i = 0; i < 64; ++i) {
    pool.submit([&results, i] { results[static_cast<std::size_t>(i)] = i * i; });
  }
  pool.wait_idle();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, WaitIdleCanBeCalledRepeatedly) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      });
    }
    // No wait_idle(): the destructor must finish every task before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WorkIsStolenAcrossWorkers) {
  // One blocker task pins whichever worker runs it while tasks were dealt
  // round-robin across ALL deques — so roughly half of the quick tasks sit
  // in the pinned worker's deque and can only finish if the free worker
  // steals them. If stealing were broken this test would hit the deadline.
  util::ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> quick_done{0};
  pool.submit([&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 63; ++i) {
    pool.submit([&quick_done] { ++quick_done; });
  }
  // The blocker occupies one worker; all 63 quick tasks (half of them in
  // the blocked worker's deque) must still complete.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (quick_done.load() < 63 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(quick_done.load(), 63);
  release.store(true, std::memory_order_release);
  pool.wait_idle();
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      ++count;
      pool.submit([&count] { ++count; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, ManyTinyTasksStress) {
  util::ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace dcpim
