#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace randrank {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCount) {
  ThreadPool pool(2);
  ParallelFor(pool, 0, [](size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(16);
  std::atomic<int> counter{0};
  ParallelFor(pool, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    ParallelFor(pool, 50, [&](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPoolTest, DefaultSizeIsHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, SubmitAfterWaitStartsANewWave) {
  // The documented reuse contract: Wait() is a synchronization point, not a
  // shutdown. Submit() after Wait() must work and the next Wait() must cover
  // exactly the new wave.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 4; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), wave * 10);
  }
}

TEST(ThreadPoolTest, WaitIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Wait();
  pool.Wait();  // second Wait on a drained pool returns immediately
  pool.Submit([] {});
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForReusesPoolWithMixedCounts) {
  // Waves below, at, and above the worker count, including empty waves.
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (const size_t count : {0u, 1u, 3u, 4u, 64u, 0u, 7u}) {
    ParallelFor(pool, count, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 79u);
}

TEST(ThreadPoolTest, HelpAndWaitRunsQueuedTasksOnTheCaller) {
  // The only worker is held, so the caller must run the queued tasks
  // itself; the last one lets the worker go.
  ThreadPool pool(1);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  pool.Submit([&] {
    held = true;
    while (!release) std::this_thread::yield();
  });
  while (!held) std::this_thread::yield();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  for (int i = 0; i < 5; ++i) {
    pool.Submit([&] {
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    });
  }
  pool.Submit([&] { release = true; });
  pool.HelpAndWait();
  EXPECT_EQ(on_caller.load(), 5);
}

}  // namespace
}  // namespace randrank
