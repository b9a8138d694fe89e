#include "rf/synthesizer.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

Synthesizer::Synthesizer(const pulse::BandPlan& plan, const SynthesizerParams& params)
    : plan_(plan), params_(params) {
  detail::require(params.settle_time_s >= 0.0, "Synthesizer: settle time must be >= 0");
  detail::require(params.phase_noise_rms_rad >= 0.0, "Synthesizer: phase noise rms must be >= 0");
  detail::require(params.loop_bandwidth_hz > 0.0, "Synthesizer: loop bandwidth must be > 0");
}


double Synthesizer::tune(int channel) {
  detail::require(channel >= 0 && channel < static_cast<int>(plan_.num_channels()),
                  "Synthesizer::tune: channel out of range");
  if (channel == channel_) return 0.0;
  channel_ = channel;
  return params_.settle_time_s;
}

RealVec Synthesizer::phase_noise(std::size_t n, double fs, Rng& rng) const {
  RealVec theta(n, 0.0);
  if (params_.phase_noise_rms_rad <= 0.0 || n == 0) return theta;

  // One-pole lowpass driven by white noise: theta[k] = a theta[k-1] + w[k].
  // Stationary variance = sigma_w^2 / (1 - a^2); scale to the target RMS.
  const double a = std::exp(-two_pi * params_.loop_bandwidth_hz / fs);
  const double target_var = params_.phase_noise_rms_rad * params_.phase_noise_rms_rad;
  const double sigma_w = std::sqrt(target_var * (1.0 - a * a));
  double state = rng.gaussian(0.0, params_.phase_noise_rms_rad);  // stationary start
  for (std::size_t i = 0; i < n; ++i) {
    state = a * state + rng.gaussian(0.0, sigma_w);
    theta[i] = state;
  }
  return theta;
}

void Synthesizer::apply_phase_noise(CplxVec& x, double fs, Rng& rng) const {
  if (params_.phase_noise_rms_rad <= 0.0) return;
  const RealVec theta = phase_noise(x.size(), fs, rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] *= std::polar(1.0, theta[i]);
  }
}

}  // namespace uwb::rf
