#include "engine/thread_pool.h"

#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/trace.h"

namespace uwb::engine {

namespace {
// Which pool/worker the current thread belongs to, so submit() from inside
// a task lands on the submitter's own deque (stealable by everyone else).
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_worker = 0;

std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// The CPUs the calling thread may run on, ascending (empty off Linux or
/// when the mask cannot be read).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

/// Binds the calling thread to \p cpu. A failed bind (the CPU went offline
/// since the mask was read) leaves the thread where the kernel put it.
void bind_to_cpu([[maybe_unused]] int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#endif
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, obs::TraceRecorder* recorder)
    : recorder_(recorder) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  queues_.resize(num_threads);
  counters_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    counters_.push_back(std::make_unique<WorkerCounters>());
  }
  // Fewer workers than CPUs keep the kernel's placement: pools that run
  // side by side (farm shards) would otherwise all pile onto the lowest
  // CPUs of the mask.
  cpus_ = allowed_cpus();
  if (num_threads < cpus_.size()) cpus_.clear();
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t target = t_pool == this ? t_worker : next_submit_++ % queues_.size();
    queues_[target].push_back(std::move(task));
    ++queued_;
    ++unfinished_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return unfinished_ == 0; });
}

std::vector<obs::PoolWorkerStats> ThreadPool::worker_stats() const {
  std::vector<obs::PoolWorkerStats> stats;
  stats.reserve(counters_.size());
  for (const auto& c : counters_) {
    obs::PoolWorkerStats w;
    w.executed = c->executed.load(std::memory_order_relaxed);
    w.stolen = c->stolen.load(std::memory_order_relaxed);
    w.idle_us = c->idle_us.load(std::memory_order_relaxed);
    stats.push_back(w);
  }
  return stats;
}

std::function<void()> ThreadPool::pop(std::size_t id, bool& stolen) {
  // Own deque first (back: most recently pushed), then the front of the
  // others, starting just past ours so thieves spread out instead of all
  // hammering worker 0. queued_ > 0, so some deque holds a task.
  std::function<void()> task;
  for (std::size_t k = 0;; ++k) {
    auto& queue = queues_[(id + k) % queues_.size()];
    if (queue.empty()) continue;
    stolen = k > 0;
    if (stolen) {
      task = std::move(queue.front());
      queue.pop_front();
    } else {
      task = std::move(queue.back());
      queue.pop_back();
    }
    return task;
  }
}

void ThreadPool::worker_loop(std::size_t id) {
  if (!cpus_.empty()) bind_to_cpu(cpus_[id % cpus_.size()]);
  t_pool = this;
  t_worker = id;
  WorkerCounters& counters = *counters_[id];
  if (recorder_ != nullptr) {
    recorder_->name_thread("pool worker " + std::to_string(id));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queued_ == 0) {
      if (stopping_) return;
      const auto wait_start = std::chrono::steady_clock::now();
      work_available_.wait(lock, [this] { return queued_ > 0 || stopping_; });
      counters.idle_us.fetch_add(us_since(wait_start), std::memory_order_relaxed);
      continue;
    }
    bool stolen = false;
    std::function<void()> task = pop(id, stolen);
    --queued_;
    lock.unlock();
    counters.executed.fetch_add(1, std::memory_order_relaxed);
    if (stolen) counters.stolen.fetch_add(1, std::memory_order_relaxed);
    if (recorder_ != nullptr) {
      obs::Span span(recorder_, "pool", stolen ? "task (stolen)" : "task");
      task();
    } else {
      task();
    }
    task = nullptr;  // release the task's captures before the next wait
    lock.lock();
    if (--unfinished_ == 0) idle_.notify_all();
  }
}

}  // namespace uwb::engine
