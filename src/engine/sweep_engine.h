#pragma once
/// \file sweep_engine.h
/// \brief The parallel Monte-Carlo sweep runner: expands a scenario's trial
///        plan, measures every point on a work-stealing thread pool with
///        deterministic per-trial seeding, and streams results to sinks.
///
/// Seeding contract (what makes sweeps reproducible *and* parallel):
///
///   sweep_root  = Rng(config.seed)
///   point_root  = sweep_root.fork(point_index)
///   trial_root  = point_root.fork(0)    -> trial i uses trial_root.fork(i)
///   link_seed   = point_root.fork(1)    -> per-worker link construction
///
/// Every worker builds its own link from (point spec, link_seed) through
/// txrx::make_link, so all workers see identical hardware mismatch, and
/// each trial draws all of its randomness from trial_root.fork(trial_index).
/// Outcomes commit in trial order under the BerStop rule (see
/// parallel_ber.h), so the measured BerPoints -- and any JSON/CSV the sinks
/// write -- are byte-identical whether the sweep ran on 1 worker or 64.
///
/// Sharding rides on the same contract: point_index above is always the
/// point's *global* position in the plan, so shard i of N (running points
/// p with p % N == i) measures exactly what the unsharded sweep measures
/// for those points. Merging the shards' records (sorted by index)
/// reproduces the unsharded sweep byte for byte -- see io/result_io.h.

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/channel_cache.h"
#include "engine/parallel_ber.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/thread_pool.h"
#include "obs/counters.h"
#include "sim/ber_simulator.h"

namespace uwb::obs {
class TraceRecorder;
class ProgressMeter;
class StageProfiler;
}  // namespace uwb::obs

namespace uwb::engine {

struct SweepConfig {
  uint64_t seed = 0x5eed'0000'cafe'f00dULL;
  std::size_t workers = 0;  ///< 0 = hardware concurrency; at most kMaxWorkers
  sim::BerStop stop;

  /// Two-sided interval reported for unweighted points (weighted points
  /// always use the normal interval on the weight sums). Exact
  /// Clopper-Pearson by default: rare-event points with a handful of
  /// errors -- or none -- still get honest coverage.
  stats::CiMethod ci_method = stats::CiMethod::kClopperPearson;

  /// Process-level sharding: run only the points whose global index is
  /// congruent to shard_index mod shard_count. Seeding stays keyed on the
  /// global index, so N shards together reproduce the unsharded sweep
  /// exactly. The default 0/1 runs everything.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Where ensemble-mode points resolve their channel realizations
  /// (nullptr = ChannelCache::global()). An ensemble's content is a pure
  /// function of its ChannelSource key, never of the cache instance, so
  /// this only controls sharing/accounting -- results don't change.
  ChannelCache* channel_cache = nullptr;

  /// Optional telemetry (src/obs/), both observers only: a trace recorder
  /// collecting spans/counters from the engine, the pool workers, and the
  /// channel-cache resolution, and a live progress meter fed trial counts.
  /// Results are byte-identical with either enabled or disabled (tested).
  obs::TraceRecorder* trace = nullptr;
  obs::ProgressMeter* progress = nullptr;

  /// Optional stage profiler (obs/profile.h): per-stage time/throughput
  /// attribution inside the links and the dsp kernels. Reset before each
  /// point, merged after it, so every PointRecord carries its own stage
  /// table and SweepResult::stages the run total. Observer-only, same
  /// byte-identity contract as trace/progress.
  obs::StageProfiler* profile = nullptr;

  /// Cooperative cancellation (set from a SIGINT/SIGTERM handler): checked
  /// between points and inside the trial loop. The in-flight point is
  /// discarded -- a truncated point would not be deterministic -- so the
  /// records delivered to sinks are exactly the completed-point prefix of
  /// the plan, each byte-identical to an uninterrupted run's. Null = never
  /// cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// A completed sweep: the metadata plus every measured point's record in
/// plan order (a shard's records keep their global indices).
struct SweepResult {
  SweepInfo info;
  std::vector<PointRecord> records;

  /// True when config.cancel fired: records hold the completed-point
  /// prefix only and the sweep ended early. The caller decides what a
  /// partial run means (uwb_sweep flushes it and exits with the
  /// interrupted code).
  bool interrupted = false;

  /// Operational counters for this run (always filled; never serialized
  /// into the result document -- see obs/manifest.h for the sidecar):
  /// per-worker pool stats, channel-cache and FFT-plan-cache deltas,
  /// executed and committed trials, wall time.
  obs::RunCounters counters;

  /// Run-total stage profile: the sum of every record's stage table (plus
  /// adaptive top-up work). Empty unless config.profile was set.
  obs::StageTable stages;

  /// First record whose tags contain every given (axis, value) pair, or
  /// nullptr. Benches use this to pair up points for derived columns.
  [[nodiscard]] const PointRecord* find(
      const std::vector<std::pair<std::string, std::string>>& tags) const;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepConfig config = {});

  [[nodiscard]] const SweepConfig& config() const noexcept { return config_; }

  /// Runs every point of \p scenario (in this config's shard); sinks
  /// receive points in plan order.
  SweepResult run(const ScenarioSpec& scenario, const std::vector<ResultSink*>& sinks = {});

  /// Convenience: expand a registered scenario by name and run it.
  SweepResult run_named(const std::string& name, const std::vector<ResultSink*>& sinks = {});

  /// Adaptive allocation: a base pass at the configured stop rule, then up
  /// to \p extra_trials additional trials poured into whichever point has
  /// the widest CI half-width relative to its BER (a zero-error point
  /// counts as infinitely wide). Each top-up resumes the point's measurement
  /// state (engine::PointState) under a larger trial cap: it runs only the
  /// new trials, and -- by the ordered-commit determinism contract -- commits
  /// exactly what a from-scratch run under that cap would, so the final
  /// document is still a pure function of (scenario, seed, stop,
  /// extra_trials). Sinks receive the finished records once, at the end.
  /// Incompatible with sharding (the allocator must see every point).
  SweepResult run_adaptive(const ScenarioSpec& scenario, std::size_t extra_trials,
                           const std::vector<ResultSink*>& sinks = {});

 private:
  SweepConfig config_;
};

}  // namespace uwb::engine
