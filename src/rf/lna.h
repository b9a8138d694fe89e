#pragma once
/// \file lna.h
/// \brief Behavioral low-noise amplifier: gain, noise figure and soft
///        compression. Section 1 requires the RF front end to "meet the
///        specifications on noise figure and linearity over a bandwidth
///        larger than 500 MHz"; this model supplies those specifications as
///        parameters.
///
/// The simulator's waveforms are unitless, so linearity is specified as
/// *headroom*: the soft-limiting knee sits headroom_db above the input's
/// rms level. A large headroom (default 20 dB) models an amplifier
/// operating in its linear region; small values model front-end overload
/// (e.g. a strong in-band interferer driving the LNA into compression).

#include "common/rng.h"
#include "common/types.h"

namespace uwb::rf {

/// LNA parameters.
struct LnaParams {
  double gain_db = 15.0;
  double noise_figure_db = 4.0;
  double headroom_db = 20.0;  ///< compression knee above input rms
};

/// The envelope limiter's gain sat * tanh(|x| / sat) / |x| on the sample
/// x = re + j*im (1 for |x| ~ 0). In the small-signal region
/// |x|^2 / sat^2 < 1/9 it is a polynomial in |x|^2 / sat^2 -- no hypot,
/// no tanh -- accurate to ~1 ulp; larger samples take the closed form.
[[nodiscard]] double soft_clip_gain(double re, double im, double sat) noexcept;

/// Gain + additive noise + tanh soft limiter.
///
/// Noise injection needs a reference: \p input_noise_variance is the total
/// input-referred noise power per sample already present (e.g. from the
/// channel). The LNA adds (F - 1) times that, the standard excess-noise
/// view of noise figure, so a noiseless configuration adds nothing.
class Lna {
 public:
  explicit Lna(const LnaParams& params);

  [[nodiscard]] const LnaParams& params() const noexcept { return params_; }

  [[nodiscard]] double gain_linear() const noexcept { return gain_amp_; }

  /// Amplifies a complex baseband signal held as \p n-sample split-I/Q
  /// rails in place (envelope compression). The limiter gain is
  /// soft_clip_gain().
  void process_iq(double* x_i, double* x_q, std::size_t n, double input_noise_variance,
                  Rng& rng) const;

  /// The saturation amplitude the limiter would use for an input of the
  /// given rms level.
  [[nodiscard]] double saturation_amplitude(double input_rms) const noexcept;

 private:
  LnaParams params_;
  double gain_amp_;
  double excess_noise_factor_;  ///< F - 1, linear
  double headroom_amp_;
};

}  // namespace uwb::rf
