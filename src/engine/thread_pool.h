#pragma once
/// \file thread_pool.h
/// \brief Work-stealing thread pool for the Monte-Carlo sweep engine.
///
/// Each worker owns a deque of tasks: the owner pushes and pops at the back
/// (LIFO keeps hot data local), idle workers steal from the front of other
/// workers' deques (FIFO takes the oldest, largest-grained work). External
/// submissions are distributed round-robin. The pool is intentionally
/// simple -- one mutex over every deque and a queued-task count, one
/// condition variable -- because sweep tasks are milliseconds-to-seconds of
/// signal processing, not nanosecond lambdas. Workers sleep on "a task is
/// queued or the pool is stopping", so a submit can never slip past a
/// worker that is about to sleep.
///
/// Placement: the pool reads the CPUs the creating thread may run on
/// (sched_getaffinity: the process's mask, as taskset or a cpuset sets
/// it). With at least as many workers as those n CPUs, worker i binds
/// itself to the (i mod n)-th of them; with fewer, placement stays with
/// the kernel. Where the kernel does not balance load (a cpuset with
/// sched_load_balance 0), threads otherwise stay on the CPU that created
/// them. Off Linux, placement is always the kernel's.
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

  [[nodiscard]] std::size_t size() const noexcept { return queues_.size(); }

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
  /// Relaxed atomics: slots are written by their owning worker and read by
  /// worker_stats() from the coordinating thread.
  struct WorkerCounters {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> idle_us{0};
  };

  void worker_loop(std::size_t id);
  /// Takes worker \p id's next task; needs mutex_ held and queued_ > 0.
  std::function<void()> pop(std::size_t id, bool& stolen);

  std::vector<std::deque<std::function<void()>>> queues_;  ///< one per worker (mutex_)
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
  std::vector<int> cpus_;  ///< CPUs the workers bind to, in order; empty: the kernel's
  std::vector<std::thread> threads_;
  obs::TraceRecorder* recorder_ = nullptr;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t queued_ = 0;      ///< tasks in the deques (under mutex_)
  std::size_t unfinished_ = 0;  ///< queued + running tasks (under mutex_)
  bool stopping_ = false;
  std::size_t next_submit_ = 0;
};

}  // namespace uwb::engine
