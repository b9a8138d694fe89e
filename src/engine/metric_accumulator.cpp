#include "engine/metric_accumulator.h"

#include <cmath>

#include "common/error.h"

namespace uwb::engine {

void MetricAccumulator::set_rule(const sim::BerStop& stop, stats::CiMethod ci_method,
                                 std::size_t committed_trials) {
  if (committed_trials > 0) {
    detail::require(stop.metric == stop_.metric &&
                        stop.target_rel_ci_width == stop_.target_rel_ci_width,
                    "resume: the stop metric and CI target must match the rule that "
                    "measured the committed prefix");
    detail::require(stop.min_errors >= stop_.min_errors && stop.max_bits >= stop_.max_bits &&
                        stop.max_trials >= committed_trials,
                    "resume: a smaller error or bit budget, or a trial cap below the "
                    "committed count, could have stopped inside the committed prefix");
  }
  stop_ = stop;
  ci_method_ = ci_method;
}

void MetricAccumulator::commit(const sim::TrialOutcome& outcome) {
  ber_.add(outcome.errors, outcome.bits);
  if (outcome.weighted) {
    any_weighted_ = true;
    weighted_.add(std::exp(outcome.log_weight), outcome.errors, outcome.bits);
  } else {
    weighted_.add(1.0, outcome.errors, outcome.bits);
  }
  bool stop_metric_ok = false;
  for (const auto& [name, value] : outcome.metrics) {
    metrics_.add(name, value);
    if (!stop_.metric.empty() && name == stop_.metric && value != 0.0) {
      stop_metric_ok = true;
    }
  }
  if (!stop_.metric.empty() && !stop_metric_ok) ++metric_errors_;
}

bool MetricAccumulator::ci_target_met() const {
  if (stop_.target_rel_ci_width <= 0.0) return false;
  // Cheap per-commit check: Wilson for plain counts, the weighted normal
  // interval otherwise. The reported interval may use a different (exact)
  // method; the stop decision only needs a consistent deterministic probe.
  if (any_weighted_) {
    if (weighted_.we_sum <= 0.0) return false;
    const double ber = weighted_.ber();
    return ber > 0.0 && weighted_.halfwidth() <= stop_.target_rel_ci_width * ber;
  }
  if (ber_.errors() == 0) return false;
  const double ber = ber_.ber();
  return ber > 0.0 && ber_.ci95_halfwidth() <= stop_.target_rel_ci_width * ber;
}

sim::MeasuredPoint MetricAccumulator::finish(std::size_t trials) const {
  sim::MeasuredPoint point;
  point.ber.bits = ber_.bits();
  point.ber.errors = ber_.errors();
  point.ber.trials = trials;
  point.ber.weighted = any_weighted_;
  if (any_weighted_) {
    point.ber.ber = weighted_.ber();
    point.ber.ci95 = trials >= 2 ? weighted_.halfwidth() : (point.ber.bits ? 0.5 : 1.0);
    const stats::Interval ci = weighted_.interval();
    point.ber.ci_lo = ci.lo;
    point.ber.ci_hi = ci.hi;
    point.ber.ci_method = stats::CiMethod::kNormalWeighted;
    point.ber.ess = weighted_.ess();
  } else {
    point.ber.ber = ber_.ber();              // 0 when the stream yielded no bits
    point.ber.ci95 = ber_.ci95_halfwidth();  // likewise guarded against bits == 0
    const stats::Interval ci =
        stats::binomial_interval(ci_method_, ber_.errors(), ber_.bits());
    point.ber.ci_lo = ci.lo;
    point.ber.ci_hi = ci.hi;
    point.ber.ci_method = ci_method_;
    point.ber.ess = static_cast<double>(trials);
  }
  point.metrics = metrics_;
  return point;
}

}  // namespace uwb::engine
