#pragma once
/// \file ber_simulator.h
/// \brief Monte-Carlo trial accounting: the per-trial outcome record (bit
///        counts plus named scalar metrics), the stopping rule, and the
///        measured-point results every link bench shares.

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "stats/binomial_ci.h"

namespace uwb::sim {

/// Name of the metric that carries an importance-sampled trial's
/// log-likelihood ratio (see TrialOutcome::set_weight).
inline constexpr const char* kIsLlrMetric = "is_llr";

/// One trial's contribution -- the one trial record every link, the trial
/// core and every BER loop share: the bit/error pair (first-class, never a
/// metric) plus the trial's named scalar metrics (acquisition flags, sync
/// time, RAKE capture, SNR estimate, ...). A metric absent from a trial
/// simply contributes no observation -- e.g. a sync-time metric emitted
/// only on detected trials averages over the detected subset.
///
/// Importance-sampled trials (stats::SamplingPolicy) are \p weighted and
/// carry the trial's log-likelihood ratio: the errors then enter the BER
/// estimate scaled by exp(log_weight) while bits stay the unweighted
/// denominator.
struct TrialOutcome {
  std::size_t bits = 0;
  std::size_t errors = 0;

  /// (name, value) in emission order; names unique per trial.
  std::vector<std::pair<std::string, double>> metrics;
  double log_weight = 0.0;
  bool weighted = false;

  void set_metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }

  /// The named metric's value, or nullopt when this trial did not emit it.
  [[nodiscard]] std::optional<double> metric(const std::string& name) const {
    for (const auto& [key, value] : metrics) {
      if (key == name) return value;
    }
    return std::nullopt;
  }

  /// Marks the trial importance-sampled with log-likelihood ratio \p llr
  /// and emits it as the kIsLlrMetric observable. The weight itself is
  /// estimator state: it applies whether or not a record_metrics filter
  /// later keeps the metric.
  void set_weight(double llr) {
    log_weight = llr;
    weighted = true;
    set_metric(kIsLlrMetric, llr);
  }
};

/// Stopping rule. max_trials is a hard stop even when a trial stream
/// yields no errors (or no bits at all), so a degenerate trial can never
/// spin the loop forever.
///
/// The rule targets *bit* errors by default. Setting \p metric names a
/// per-trial success-flag metric instead: a committed trial then counts
/// one error toward min_errors when that metric is absent or zero (e.g.
/// metric = "timing_correct" stops after min_errors acquisition failures).
/// Setting \p target_rel_ci_width > 0 switches the error budget off: the
/// point instead stops once its BER estimate has at least one error and a
/// 95% CI half-width / BER ratio at or below the target (Wilson for plain
/// counts, the normal interval for weighted estimates). max_bits and
/// max_trials stay as hard caps either way.
struct BerStop {
  std::size_t min_errors = 50;       ///< stop after this many errors...
  std::size_t max_bits = 2'000'000;  ///< ...or this many bits
  std::size_t max_trials = 100'000;  ///< ...or this many trials, hard stop
  std::string metric;                ///< "" = bit errors; else a success-flag metric
  double target_rel_ci_width = 0.0;  ///< > 0: stop on relative CI width instead

  /// Largest min_errors / max_bits / max_trials a spec or a CLI flag may
  /// set: 2^53, the largest count a JSON number carries exactly in every
  /// reader (result documents, manifests and farm specs hold budgets as
  /// JSON numbers), and far past any run that can finish. Code that means
  /// "no cap" sets SIZE_MAX directly.
  static constexpr std::size_t kMaxBudget = std::size_t{1} << 53;

  [[nodiscard]] bool operator==(const BerStop&) const = default;
};

/// Throws InvalidArgument naming the first budget of \p stop above
/// BerStop::kMaxBudget: the check spec readers and CLI flags share.
void validate_budgets(const BerStop& stop);

/// Divides a stopping rule's error/bit budgets for a quick pass, clamped
/// so a small budget can never degenerate to min_errors == 0 (stop
/// immediately) or max_bits == 0. The one scaling helper shared by the
/// benches' UWB_BENCH_FAST mode and the uwb_sweep CLI's --fast flag.
[[nodiscard]] BerStop scale_stop(BerStop stop, std::size_t error_divisor,
                                 std::size_t bits_divisor);

/// A measured BER point. \p ci95 keeps its historical meaning (Wilson
/// half-width for plain counts, normal half-width for weighted estimates);
/// [ci_lo, ci_hi] is the full two-sided 95% interval computed by
/// \p ci_method. Weighted (importance-sampled) points also report the
/// effective sample size of their weight set.
struct BerPoint {
  double ber = 0.0;
  double ci95 = 0.0;
  std::size_t bits = 0;
  std::size_t errors = 0;
  std::size_t trials = 0;
  double ci_lo = 0.0;
  double ci_hi = 1.0;
  stats::CiMethod ci_method = stats::CiMethod::kClopperPearson;
  bool weighted = false;
  double ess = 0.0;  ///< effective sample size (trials when unweighted)

  [[nodiscard]] bool operator==(const BerPoint&) const = default;
};

/// A fully measured grid point: the BER counters plus the reductions of
/// every named metric the trials emitted (count / mean / variance per
/// metric, see MetricStats). What engine::measure_point returns and
/// the result sinks serialize.
struct MeasuredPoint {
  BerPoint ber;
  MetricSet metrics;

  [[nodiscard]] bool operator==(const MeasuredPoint&) const = default;
};

/// Runs \p trial repeatedly under the stopping rule: the sequential
/// convenience helper, one worker through engine::measure_point.
/// The closure owns its randomness; parallel, seed-per-trial sweeps go
/// through engine::SweepEngine.
BerPoint measure_ber(const std::function<TrialOutcome()>& trial, const BerStop& stop = {});

}  // namespace uwb::sim
