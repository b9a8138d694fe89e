#pragma once
/// \file thread_pool.h
/// \brief Work-stealing thread pool for the Monte-Carlo sweep engine.
///
/// Each worker owns a deque of tasks: the owner pushes and pops at the back
/// (LIFO keeps hot data local), idle workers steal from the front of other
/// workers' deques (FIFO takes the oldest, largest-grained work). External
/// submissions are distributed round-robin. The pool is intentionally
/// simple -- mutex-per-deque, one condition variable -- because sweep tasks
/// are milliseconds-to-seconds of signal processing, not nanosecond lambdas.
///
/// Observability: every worker counts tasks executed, tasks stolen, and
/// idle time (always on -- a few relaxed atomic writes per task, read back
/// through worker_stats()). When the pool is built with a TraceRecorder it
/// additionally names each worker thread in the trace and records one span
/// per executed task. Neither affects scheduling or results.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/counters.h"

namespace uwb::obs {
class TraceRecorder;
}  // namespace uwb::obs

namespace uwb::engine {

/// The largest worker count a sweep accepts (SweepEngine, both CLIs and
/// farm specs enforce it): far past any core count, yet small enough that a
/// mistyped count cannot ask the system for millions of threads.
inline constexpr std::size_t kMaxWorkers = 1024;

class ThreadPool {
 public:
  /// \p num_threads 0 picks std::thread::hardware_concurrency() (min 1).
  /// \p recorder (optional) receives one "pool" span per executed task.
  explicit ThreadPool(std::size_t num_threads = 0, obs::TraceRecorder* recorder = nullptr);

  /// Drains nothing: outstanding tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Safe from any thread, including pool workers (a
  /// worker submits to its own deque; thieves redistribute the load).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished executing.
  void wait_idle();

  /// Per-worker execution counters. Task counts are exact for all tasks
  /// completed before the last wait_idle(); idle time covers waits that
  /// finished by then (the final sleep before destruction is not counted).
  [[nodiscard]] std::vector<obs::PoolWorkerStats> worker_stats() const;

 private:
  struct Deque {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Relaxed atomics: slots are written by their owning worker and read by
  /// worker_stats() from the coordinating thread.
  struct WorkerCounters {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> idle_us{0};
  };

  void worker_loop(std::size_t id);
  bool try_pop(std::size_t id, std::function<void()>& task, bool& stolen);

  std::vector<std::unique_ptr<Deque>> workers_;
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
  std::vector<std::thread> threads_;
  obs::TraceRecorder* recorder_ = nullptr;

  std::mutex signal_mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t unfinished_ = 0;  ///< queued + running tasks (under signal_mutex_)
  bool stopping_ = false;
  std::size_t next_submit_ = 0;
};

}  // namespace uwb::engine
