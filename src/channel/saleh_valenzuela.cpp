#include "channel/saleh_valenzuela.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::channel {

SvParams cm1() {
  SvParams p;
  p.name = "CM1";
  p.cluster_rate_per_s = 0.0233e9;
  p.ray_rate_per_s = 2.5e9;
  p.cluster_decay_s = 7.1e-9;
  p.ray_decay_s = 4.3e-9;
  p.max_excess_delay_s = 100e-9;
  return p;
}

SvParams cm2() {
  SvParams p;
  p.name = "CM2";
  p.cluster_rate_per_s = 0.4e9;
  p.ray_rate_per_s = 0.5e9;
  p.cluster_decay_s = 5.5e-9;
  p.ray_decay_s = 6.7e-9;
  p.max_excess_delay_s = 120e-9;
  return p;
}

SvParams cm3() {
  SvParams p;
  p.name = "CM3";
  p.cluster_rate_per_s = 0.0667e9;
  p.ray_rate_per_s = 2.1e9;
  p.cluster_decay_s = 14.0e-9;
  p.ray_decay_s = 7.9e-9;
  p.max_excess_delay_s = 200e-9;
  return p;
}

SvParams cm4() {
  SvParams p;
  p.name = "CM4";
  p.cluster_rate_per_s = 0.0667e9;
  p.ray_rate_per_s = 2.1e9;
  p.cluster_decay_s = 24.0e-9;
  p.ray_decay_s = 12.0e-9;
  p.max_excess_delay_s = 300e-9;
  return p;
}

SvParams cm_by_index(int cm) {
  switch (cm) {
    case 1: return cm1();
    case 2: return cm2();
    case 3: return cm3();
    case 4: return cm4();
    default: throw InvalidArgument("cm_by_index: index must be 1..4");
  }
}

SalehValenzuela::SalehValenzuela(SvParams params) : params_(std::move(params)) {
  detail::require(params_.cluster_rate_per_s > 0.0 && params_.ray_rate_per_s > 0.0,
                  "SalehValenzuela: arrival rates must be positive");
  detail::require(params_.cluster_decay_s > 0.0 && params_.ray_decay_s > 0.0,
                  "SalehValenzuela: decay constants must be positive");
}

Cir SalehValenzuela::realize(Rng& rng, bool apply_shadowing) const {
  const SvParams& p = params_;
  std::vector<CirTap> taps;

  // Lognormal per-tap fading: combined sigma of the cluster and ray terms.
  const double sigma_db =
      std::sqrt(p.cluster_fading_db * p.cluster_fading_db + p.ray_fading_db * p.ray_fading_db);
  // Mean-power correction: for n ~ N(mu, sigma^2) in dB the linear power
  // 10^(n/10) has mean 10^(mu/10) exp((sigma ln10/10)^2 / 2); choosing
  // mu = -sigma^2 ln(10)/20 makes that mean exactly 1.
  const double mean_correction_db = -sigma_db * sigma_db * std::log(10.0) / 20.0;

  // First cluster at t = 0 (standard 802.15.3a convention).
  double cluster_time = 0.0;
  while (cluster_time < p.max_excess_delay_s) {
    // First ray of the cluster arrives with the cluster.
    double ray_time = 0.0;
    const double cluster_power = std::exp(-cluster_time / p.cluster_decay_s);
    while (cluster_time + ray_time < p.max_excess_delay_s) {
      // Mean power of this ray (relative, normalized later).
      const double mean_power_lin = cluster_power * std::exp(-ray_time / p.ray_decay_s);
      // Lognormal amplitude around the mean power.
      const double n_db = rng.gaussian(0.0, sigma_db);
      const double power = mean_power_lin * std::pow(10.0, (n_db + mean_correction_db) / 10.0);
      const double amp = std::sqrt(power);

      cplx gain;
      if (p.complex_phases) {
        gain = std::polar(amp, rng.uniform(0.0, two_pi));
      } else {
        gain = cplx(amp * rng.sign(), 0.0);
      }
      taps.push_back(CirTap{cluster_time + ray_time, gain});

      ray_time += rng.exponential(1.0 / p.ray_rate_per_s);
    }
    cluster_time += rng.exponential(1.0 / p.cluster_rate_per_s);
  }

  if (taps.empty()) {
    taps.push_back(CirTap{0.0, cplx{1.0, 0.0}});
  }

  Cir cir(std::move(taps));
  cir.normalize_energy();

  if (apply_shadowing) {
    const double x_db = rng.gaussian(0.0, p.shadowing_db);
    const double g = std::pow(10.0, x_db / 20.0);
    std::vector<CirTap> shadowed = cir.taps();
    for (auto& t : shadowed) t.gain *= g;
    cir = Cir(std::move(shadowed));
  }
  return cir;
}

}  // namespace uwb::channel
