#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace manywalks {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ThrowingTaskSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  pool.submit([&counter] { counter.fetch_add(1); });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception from wait_idle";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task boom");
  }
  // The exception is consumed: other tasks still ran, the pool is idle, and
  // a second wait does not rethrow.
  EXPECT_EQ(counter.load(), 1);
  pool.wait_idle();
}

TEST(ThreadPoolTest, OnlyFirstTaskExceptionIsKept) {
  ThreadPool pool(1);
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // later exceptions were dropped, not queued
}

TEST(ThreadPoolTest, ReusableAfterTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::invalid_argument("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::invalid_argument);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  // The destructor drains the queue before joining: every task submitted
  // before shutdown runs, even with far more tasks than workers.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait_idle: destruction itself must flush the queue.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructionWithPendingExceptionDoesNotTerminate) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("unobserved"); });
    pool.submit([&counter] { counter.fetch_add(1); });
    // Destructor discards the captured exception instead of rethrowing.
  }
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, SubmitNullTaskIsRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), std::invalid_argument);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&hits](std::uint64_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 5, 5, [&counter](std::uint64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelFor, RespectsGrain) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  parallel_for(
      pool, 0, 100, [&sum](std::uint64_t i) { sum.fetch_add(i); },
      /*grain=*/16);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::uint64_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 10, [&counter](std::uint64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, WorksWithSingleWorker) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  parallel_for(pool, 0, 50, [&](std::uint64_t i) {
    std::lock_guard lock(m);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order.size(), 50u);
}

TEST(ParallelFor, LargeRangeSumsCorrectly) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  const std::uint64_t n = 100000;
  parallel_for(
      pool, 0, n, [&sum](std::uint64_t i) { sum.fetch_add(i); },
      /*grain=*/512);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// table1's oracle chains occupy workers for long stretches while the
// calling thread runs its Monte-Carlo batches through parallel_for: the
// call must complete on the caller alone, without waiting for its helpers
// queued behind the busy workers. A watchdog frees the workers after a
// grace period, so a regression fails the test instead of hanging it.
TEST(ParallelFor, CompletesWhileEveryWorkerIsBlocked) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable cv;
  unsigned blocked = 0;
  bool release = false;
  bool returned = false;
  for (unsigned t = 0; t < pool.size(); ++t) {
    pool.submit([&] {
      std::unique_lock lock(mutex);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return blocked == pool.size(); });
  }
  std::thread watchdog([&] {
    std::unique_lock lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return returned; });
    release = true;
    cv.notify_all();
  });

  std::vector<std::atomic<int>> hits(1000);
  parallel_for(
      pool, 0, hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); },
      /*grain=*/7);
  bool freed_by_watchdog = false;
  {
    std::lock_guard lock(mutex);
    freed_by_watchdog = release;
    returned = true;
  }
  cv.notify_all();
  watchdog.join();
  pool.wait_idle();

  EXPECT_FALSE(freed_by_watchdog);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(DefaultThreadCount, IsPositive) { EXPECT_GE(default_thread_count(), 1u); }

}  // namespace
}  // namespace manywalks
