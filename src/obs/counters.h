#pragma once
/// \file counters.h
/// \brief Engine counter totals for one sweep run: the numbers the
///        subsystems already count internally (thread-pool task accounting,
///        channel-ensemble cache hits, FFT plan-cache reuse) surfaced as
///        one aggregate that SweepEngine fills on every run -- telemetry on
///        or off -- and the CLI turns into the run-manifest sidecar and the
///        end-of-run summary line.

#include <cstdint>
#include <vector>

namespace uwb::obs {

/// One pool worker's task accounting (engine/thread_pool.h).
struct PoolWorkerStats {
  std::uint64_t executed = 0;  ///< tasks this worker ran
  std::uint64_t stolen = 0;    ///< subset of executed taken from another worker's deque
  std::uint64_t idle_us = 0;   ///< time spent waiting between tasks while the pool ran

  [[nodiscard]] bool operator==(const PoolWorkerStats&) const = default;
};

/// Counter totals for one SweepEngine::run. Cache counters are deltas over
/// the run (the caches are long-lived and possibly shared), so a run's
/// counters describe that run alone; peak_rss_mb is the one process-wide
/// reading.
struct RunCounters {
  std::vector<PoolWorkerStats> pool;  ///< one entry per worker thread

  std::uint64_t cache_hits = 0;        ///< channel ensembles served from memory
  std::uint64_t cache_disk_loads = 0;  ///< ... loaded from the binary store
  std::uint64_t cache_generated = 0;   ///< ... generated in-process
  std::uint64_t cache_sv_draws = 0;    ///< total S-V realize() calls paid for

  std::uint64_t fft_plan_hits = 0;    ///< FFT plan-cache lookups served
  std::uint64_t fft_plan_misses = 0;  ///< ... that had to build a plan

  /// Trials the engine ran and trials it committed, over the base pass and
  /// every adaptive top-up (summed from each point's engine::PointState).
  /// The difference is speculative work discarded past a stop rule.
  std::uint64_t trials_executed = 0;
  std::uint64_t trials_committed = 0;

  double wall_s = 0.0;  ///< wall-clock for the whole run

  /// The process's peak resident set (getrusage ru_maxrss) when the run
  /// finished, in MB of 2^20 bytes. A process-lifetime high-water mark, so
  /// it also covers whatever the process ran before this run.
  double peak_rss_mb = 0.0;

  [[nodiscard]] std::uint64_t pool_executed() const {
    std::uint64_t n = 0;
    for (const PoolWorkerStats& w : pool) n += w.executed;
    return n;
  }
  [[nodiscard]] std::uint64_t pool_stolen() const {
    std::uint64_t n = 0;
    for (const PoolWorkerStats& w : pool) n += w.stolen;
    return n;
  }
  [[nodiscard]] std::uint64_t pool_idle_us() const {
    std::uint64_t n = 0;
    for (const PoolWorkerStats& w : pool) n += w.idle_us;
    return n;
  }

  [[nodiscard]] bool operator==(const RunCounters&) const = default;
};

}  // namespace uwb::obs
