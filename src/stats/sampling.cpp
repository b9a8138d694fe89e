#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace uwb::stats {

void validate(const SamplingPolicy& policy) {
  if (!policy.active()) return;
  if (policy.mode == SamplingMode::kNoiseScale) {
    detail::require(policy.scale >= 1.0, "sampling: scale must be >= 1");
  } else {
    detail::require(policy.max_scale >= 1.0, "sampling: max_scale must be >= 1");
    detail::require(policy.levels >= 1, "sampling: levels must be >= 1");
  }
}

std::vector<double> sampling_ladder(const SamplingPolicy& policy) {
  validate(policy);
  switch (policy.mode) {
    case SamplingMode::kNone: return {};
    case SamplingMode::kNoiseScale: return {policy.scale};
    case SamplingMode::kAutoLadder: break;
  }
  const auto levels = static_cast<std::size_t>(policy.levels);
  std::vector<double> ladder(levels);
  if (levels == 1) {
    ladder[0] = policy.max_scale;
    return ladder;
  }
  // Geometric from 1.0 (plain stratum) up to max_scale.
  const double ratio = std::pow(policy.max_scale, 1.0 / static_cast<double>(levels - 1));
  double s = 1.0;
  for (std::size_t k = 0; k < levels; ++k) {
    ladder[k] = s;
    s *= ratio;
  }
  ladder[levels - 1] = policy.max_scale;  // exact despite pow round-off
  return ladder;
}

double trial_noise_scale(const SamplingPolicy& policy, std::size_t index) {
  if (!policy.active()) return 1.0;
  const std::vector<double> ladder = sampling_ladder(policy);
  return ladder[index % ladder.size()];
}

double tilt_extra_stddev(double sigma2, double scale) {
  detail::require(sigma2 > 0.0, "tilt_extra_stddev: sigma2 must be > 0");
  detail::require(scale >= 1.0, "tilt_extra_stddev: scale must be >= 1");
  return std::sqrt(sigma2 * (scale * scale - 1.0));
}

double tilt_log_weight(double z, double sigma2, double scale) {
  detail::require(sigma2 > 0.0, "tilt_log_weight: sigma2 must be > 0");
  detail::require(scale >= 1.0, "tilt_log_weight: scale must be >= 1");
  const double s2 = scale * scale;
  return std::log(scale) - (z * z / (2.0 * sigma2)) * (1.0 - 1.0 / s2);
}

double mixture_log_weight(double z, double sigma2, const std::vector<double>& ladder) {
  detail::require(sigma2 > 0.0, "mixture_log_weight: sigma2 must be > 0");
  detail::require(!ladder.empty(), "mixture_log_weight: empty ladder");
  // log f(z) and log g_k(z) share the -log(sqrt(2 pi sigma2)) constant, so
  // it cancels from the ratio; accumulate the g_k sum with log-sum-exp.
  const double log_f = -z * z / (2.0 * sigma2);
  double max_log_g = -std::numeric_limits<double>::infinity();
  std::vector<double> log_g(ladder.size());
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    const double s = ladder[k];
    detail::require(s >= 1.0, "mixture_log_weight: ladder scales must be >= 1");
    log_g[k] = -std::log(s) - z * z / (2.0 * s * s * sigma2);
    max_log_g = std::max(max_log_g, log_g[k]);
  }
  double sum = 0.0;
  for (const double lg : log_g) sum += std::exp(lg - max_log_g);
  const double log_mix = max_log_g + std::log(sum) - std::log(static_cast<double>(ladder.size()));
  return log_f - log_mix;
}

}  // namespace uwb::stats
