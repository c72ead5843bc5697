#ifndef RANDRANK_UTIL_THREAD_POOL_H_
#define RANDRANK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace randrank {

/// Minimal fixed-size thread pool. Used by parameter sweeps (each sweep point
/// is an independent simulation), by the PageRank power iteration, and by the
/// serving layer's epoch build (EpochBuilder's per-chunk publish passes).
///
/// The pool is reusable across waves: `Wait()` is a synchronization point,
/// not a shutdown. After `Wait()` returns, further `Submit()` calls are valid
/// and a later `Wait()` covers them; `ParallelFor` relies on exactly this
/// Submit/Wait/Submit cycle. Workers only exit in the destructor, which
/// drains every task still queued.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware concurrency (at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks must not throw. Tasks must not call Submit() or
  /// Wait() on their own pool (a task blocking in Wait() would occupy the
  /// worker that has to finish the work being waited on).
  void Submit(std::function<void()> task);

  /// Blocks until the pool is idle: no task queued or running. On an idle
  /// pool it returns immediately, and it may be called repeatedly. Note the
  /// contract is pool-is-idle, not my-tasks-are-done — if another thread
  /// keeps Submit()ing concurrently, Wait() also waits for those tasks, so
  /// concurrent submitters can starve a waiter. The intended use is
  /// single-coordinator waves (Submit*, Wait, Submit*, Wait, ...).
  void Wait();

  /// Runs queued tasks on the calling thread until the queue is empty, then
  /// Wait()s. A coordinator that would otherwise sleep in Wait() drains its
  /// own wave this way: the wave starts at once on a running thread, and a
  /// worker that wakes after the last task was taken costs it nothing.
  void HelpAndWait();

  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();
  /// Runs one task taken from the queue (under `lock`, which it releases).
  void RunTask(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  // Written under mutex_; also read without it, by an idle worker polling
  // for the next wave and by HelpAndWait polling for the wave's last tasks
  // before they sleep: a sleeper's wake-up costs tens of microseconds or
  // more on a VM, paid per wave when waves come back to back.
  std::atomic<size_t> queued_{0};  // tasks_.size()
  std::atomic<size_t> in_flight_{0};
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, count) across the pool and the calling thread
/// (HelpAndWait), so up to size() + 1 threads run fn, and returns when all
/// are done. Work is chunked to keep per-task overhead negligible.
void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace randrank

#endif  // RANDRANK_UTIL_THREAD_POOL_H_
