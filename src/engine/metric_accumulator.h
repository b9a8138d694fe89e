#pragma once
/// \file metric_accumulator.h
/// \brief The reduction layer between trial outcomes and measured points:
///        BER counters (weighted when trials are importance-sampled) plus
///        per-metric count/sum/sum-of-squares, with the generalized
///        stopping rule evaluated on commit.
///
/// One accumulator instance backs one grid point. The ordered-commit loop
/// (engine/parallel_ber.cpp) feeds it committed outcomes strictly in
/// trial-index order, so every reduction -- including the floating-point
/// sums -- accumulates in the same order for any worker count, and the
/// finished MeasuredPoint is byte-identical across 1..N workers. Shards
/// never split a point, so cross-shard "merging" happens at the result-
/// document level (io/result_io.h) where points are atomic records.

#include <cstddef>

#include "sim/ber_simulator.h"
#include "stats/binomial_ci.h"
#include "stats/weighted.h"

namespace uwb::engine {

class MetricAccumulator {
 public:
  /// An empty accumulator under the default rule; a resumable point state
  /// starts here and its first measurement sets the rule (set_rule).
  MetricAccumulator() = default;
  explicit MetricAccumulator(const sim::BerStop& stop,
                             stats::CiMethod ci_method = stats::CiMethod::kClopperPearson)
      : stop_(stop), ci_method_(ci_method) {}

  /// Swaps in the rule (and reported interval) the next commits run under,
  /// keeping every committed sum. Extending a committed prefix under a new
  /// rule matches a from-scratch run under it only when the new rule could
  /// not have stopped inside the prefix, so once anything is committed the
  /// new rule must be no stricter than the current one: the same metric and
  /// CI target, no smaller error or bit budget, and a trial cap of at least
  /// \p committed_trials (a cap above the prefix cannot stop inside it, so
  /// a top-up may lower the cap of a point whose error budget fired).
  /// \throws InvalidArgument otherwise.
  void set_rule(const sim::BerStop& stop, stats::CiMethod ci_method,
                std::size_t committed_trials);

  /// True while the stopping rule allows committing another trial. The
  /// error budget counts bit errors by default; when stop.metric is set it
  /// counts committed trials whose named metric was absent or zero. A
  /// target_rel_ci_width > 0 replaces the error budget with a relative
  /// CI-width check; max_bits/max_trials stay as hard caps either way.
  [[nodiscard]] bool keep_going(std::size_t committed_trials) const {
    if (ber_.bits() >= stop_.max_bits || committed_trials >= stop_.max_trials) {
      return false;
    }
    if (stop_.target_rel_ci_width > 0.0) return !ci_target_met();
    return error_count() < stop_.min_errors;
  }

  /// Counts one committed trial (call in trial-index order).
  void commit(const sim::TrialOutcome& outcome);

  /// The finished point after \p trials committed trials.
  [[nodiscard]] sim::MeasuredPoint finish(std::size_t trials) const;

  /// Committed totals so far (telemetry: stop-rule decision events).
  [[nodiscard]] std::size_t committed_bits() const noexcept { return ber_.bits(); }
  [[nodiscard]] std::size_t committed_errors() const noexcept { return error_count(); }

  /// Whether the CI-width target (if any) is the reason the rule stopped.
  [[nodiscard]] bool ci_target_met() const;

 private:
  [[nodiscard]] std::size_t error_count() const noexcept {
    return stop_.metric.empty() ? ber_.errors() : metric_errors_;
  }

  sim::BerStop stop_;
  stats::CiMethod ci_method_ = stats::CiMethod::kClopperPearson;
  sim::BerCounter ber_;
  stats::WeightedBer weighted_;  ///< parallel weighted sums (importance sampling)
  bool any_weighted_ = false;
  sim::MetricSet metrics_;
  std::size_t metric_errors_ = 0;  ///< failed-trial count for stop_.metric
};

}  // namespace uwb::engine
