#pragma once
/// \file parallel_ber.h
/// \brief Deterministic parallel Monte-Carlo point measurement.
///
/// A Monte-Carlo point runs trials until an error/bit/trial budget is met.
/// This module runs that loop in parallel WITHOUT changing its answer:
/// trial i draws every random number from `root.fork(i)`, workers execute
/// trials speculatively, and outcomes are committed strictly in trial-index
/// order under the sequential stopping rule. The set of counted trials is
/// therefore exactly the prefix the sequential loop would have counted, so
/// the resulting MeasuredPoint -- BER counters and every named-metric
/// reduction -- is byte-identical for any worker count or scheduling order
/// (see engine/metric_accumulator.h).

#include <atomic>
#include <functional>

#include "common/rng.h"
#include "engine/metric_accumulator.h"
#include "engine/thread_pool.h"
#include "sim/ber_simulator.h"

namespace uwb::obs {
class TraceRecorder;
class ProgressMeter;
class StageProfiler;
}  // namespace uwb::obs

namespace uwb::engine {

/// One trial: runs trial \p index, drawing all of its randomness from \p rng
/// (the core passes root.fork(index)), and returns its outcome.
using TrialFn = std::function<sim::TrialOutcome(std::size_t index, Rng& rng)>;

/// Called once per worker to build worker-local state (e.g. a txrx link)
/// and return its TrialFn. The factory MUST produce functions whose
/// outcomes depend only on (index, rng) -- never on which worker runs a
/// trial or in what order (that is what makes the result deterministic).
using TrialFactory = std::function<TrialFn()>;

/// Optional telemetry hooks for one point measurement. Both observers may
/// be null; neither can change the measured result (they never touch Rng
/// streams or the commit order). With a recorder, each worker records one
/// "trials" span per executed chunk of trials plus an instant event at the
/// stop-rule decision; with a progress meter, executed trial/bit/error
/// counts stream into its atomics.
struct PointHooks {
  obs::TraceRecorder* trace = nullptr;
  obs::ProgressMeter* progress = nullptr;

  /// Stage profiler (see obs/profile.h). Each worker task activates it for
  /// the task's lifetime, so StageTimer scopes inside txrx/dsp accumulate
  /// into its per-thread tables. Observer-only, like the recorder.
  obs::StageProfiler* profile = nullptr;

  /// Cooperative cancellation (e.g. set from a SIGINT handler): workers
  /// check it at the top of their claim loop and wind the point down
  /// early. A cancelled measurement is truncated, NOT deterministic -- the
  /// caller must discard it (the sweep engine drops the in-flight point so
  /// a flushed partial document stays an exact prefix of completed
  /// points). Null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// A point's resumable measurement: the committed prefix's reductions (and
/// the stop rule that produced them) plus how much work it took. A
/// default-constructed state is fresh. measure_point extends it in
/// place, so a point measured to k trials and then resumed to N commits
/// exactly the trials a from-scratch N run commits -- the same prefix in the
/// same order, every floating-point sum included -- while running only the
/// trials past k.
struct PointState {
  MetricAccumulator acc;       ///< committed reductions + the rule behind them
  std::size_t committed = 0;   ///< trials [0, committed) are committed
  std::size_t executed = 0;    ///< trials run so far, speculative ones included
};

/// The one trial core. Sequential semantics: trial i runs with
/// root.fork(i); the point stops once the error budget (bit errors, or
/// failed trials of stop.metric when set), max_bits bits, or max_trials
/// trials are reached (max_trials is a hard stop even when no errors
/// accumulate). \p ci_method selects the two-sided interval the finished
/// point reports (weighted points always report the normal interval).
///
/// Resume: claiming starts at state.committed, on top of the state's sums,
/// and \p stop replaces the state's rule. A non-empty state requires \p stop
/// to be no stricter than that rule -- the same metric and CI target, no
/// smaller error or bit budget, a trial cap of at least state.committed
/// (MetricAccumulator::set_rule) -- and throws InvalidArgument otherwise. On
/// return the state holds the finished prefix; a measurement that throws or
/// is cancelled leaves it unchanged.
///
/// Execution: workers claim one trial index at a time, run it
/// speculatively within a bounded window ahead of the commit frontier, and
/// commit in global index order. Outcomes past the stopping point are
/// discarded, exactly as if they had never run. The set of committed trials
/// is therefore exactly the sequential loop's prefix, and the measured
/// point -- counters, metric reductions, result-document bytes -- is
/// identical for any worker count and for any prefix it resumed from.
sim::MeasuredPoint measure_point(const TrialFactory& factory, const sim::BerStop& stop,
                                 const Rng& root, ThreadPool& pool, PointState& state,
                                 const PointHooks& hooks = {},
                                 stats::CiMethod ci_method = stats::CiMethod::kClopperPearson);

}  // namespace uwb::engine
