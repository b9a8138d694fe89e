#pragma once
/// \file saleh_valenzuela.h
/// \brief IEEE 802.15.3a Saleh-Valenzuela multipath channel model, CM1-CM4.
///
/// The paper designs for "severe multipath conditions (rms delay spread of
/// the channel on the order of 20 ns)". The 802.15.3a channel-modeling
/// subcommittee's S-V variant is the standard statistical model for exactly
/// these indoor UWB channels, with four canonical parameter sets:
///
///   CM1: 0-4 m line-of-sight          (tau_rms ~  5 ns)
///   CM2: 0-4 m non-line-of-sight      (tau_rms ~  8 ns)
///   CM3: 4-10 m non-line-of-sight     (tau_rms ~ 15 ns)
///   CM4: extreme NLOS                 (tau_rms ~ 25 ns)
///
/// Clusters arrive Poisson(Lambda); rays within a cluster Poisson(lambda);
/// mean tap power decays exp(-T/Gamma) across clusters and exp(-tau/gamma)
/// within; per-tap amplitudes are lognormal. Phases here are uniform(0,2pi)
/// for the complex-baseband representation (the real-passband model's +/-1
/// polarity option is also provided).

#include <string>

#include "channel/cir.h"
#include "common/rng.h"

namespace uwb::channel {

/// Parameter set of the 802.15.3a S-V model.
struct SvParams {
  std::string name = "CM3";
  double cluster_rate_per_s = 0.0667e9;  ///< Lambda [1/s]
  double ray_rate_per_s = 2.1e9;         ///< lambda [1/s]
  double cluster_decay_s = 14.0e-9;      ///< Gamma [s]
  double ray_decay_s = 7.9e-9;           ///< gamma [s]
  double cluster_fading_db = 3.3941;     ///< sigma_1 (lognormal, dB)
  double ray_fading_db = 3.3941;         ///< sigma_2 (lognormal, dB)
  double shadowing_db = 3.0;             ///< sigma_x total shadowing (dB)
  double max_excess_delay_s = 200e-9;    ///< generation horizon
  bool complex_phases = true;            ///< uniform phase vs +/-1 polarity
};

/// The four canonical parameter sets.
SvParams cm1();
SvParams cm2();
SvParams cm3();
SvParams cm4();

/// Parameter set by index 1..4.
SvParams cm_by_index(int cm);

/// Generator producing independent channel realizations.
class SalehValenzuela {
 public:
  explicit SalehValenzuela(SvParams params);

  [[nodiscard]] const SvParams& params() const noexcept { return params_; }

  /// Draws one realization. Energy-normalized unless \p apply_shadowing;
  /// with shadowing the total energy is lognormal around 1.
  [[nodiscard]] Cir realize(Rng& rng, bool apply_shadowing = false) const;

 private:
  SvParams params_;
};

}  // namespace uwb::channel
