#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

namespace randrank {

namespace {

/// How long an idle worker polls for the next wave before it sleeps, and
/// HelpAndWait's caller for the wave's last running tasks (at most one task
/// long each).
constexpr std::chrono::microseconds kWorkerPoll{200};
constexpr std::chrono::microseconds kCallerPoll{2000};

/// Polls `busy` for up to `budget`, yielding the core between polls.
template <typename Busy>
void SpinWhile(std::chrono::microseconds budget, const Busy& busy) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (busy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::HelpAndWait() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!tasks_.empty()) RunTask(lock);
  if (in_flight_ != 0) {
    lock.unlock();
    SpinWhile(kCallerPoll, [this] {
      return in_flight_.load(std::memory_order_relaxed) != 0;
    });
    lock.lock();
  }
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::RunTask(std::unique_lock<std::mutex>& lock) {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  lock.unlock();
  task();
  lock.lock();
  if (in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (tasks_.empty() && !stop_) {
      // Waves often come back to back: poll briefly before sleeping.
      lock.unlock();
      SpinWhile(kWorkerPoll, [this] {
        return queued_.load(std::memory_order_relaxed) == 0;
      });
      lock.lock();
    }
    task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (stop_ && tasks_.empty()) return;
    RunTask(lock);
  }
}

void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const size_t chunks = std::min(count, (pool.size() + 1) * 4);
  const size_t chunk_size = (count + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(count, begin + chunk_size);
    if (begin >= end) break;
    pool.Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool.HelpAndWait();
}

}  // namespace randrank
