#include "rf/lna.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/aligned.h"

namespace uwb::rf {

Lna::Lna(const LnaParams& params) : params_(params) {
  detail::require(params.noise_figure_db >= 0.0, "Lna: noise figure must be >= 0 dB");
  detail::require(params.headroom_db > 0.0, "Lna: headroom must be positive");
  gain_amp_ = db_to_amp(params.gain_db);
  excess_noise_factor_ = from_db(params.noise_figure_db) - 1.0;
  headroom_amp_ = db_to_amp(params.headroom_db);
}

double Lna::saturation_amplitude(double input_rms) const noexcept {
  return input_rms * headroom_amp_;
}

namespace {

/// Soft limiter: sat * tanh(x / sat); odd, smooth, ~linear for small x.
inline double soft_clip(double x, double sat) noexcept {
  return sat * std::tanh(x / sat);
}

/// Small-signal region of the envelope clip: s = |x|^2 / sat^2 below this
/// (|x| < sat / 3, within ~3.3x the input rms at the default 20 dB
/// headroom) takes the polynomial gain.
constexpr double kSmallSignalS = 1.0 / 9.0;

/// tanh(r) / r as a polynomial in s = r^2: the first 13 Taylor
/// coefficients 2^2n (2^2n - 1) B_2n / (2n)!, n = 1..13 (1, -1/3, 2/15,
/// -17/315, ...). For s < 1/9 the dropped tail is below 2^-57, so the
/// result carries only the Horner evaluation's own rounding.
inline double tanh_ratio_poly(double s) noexcept {
  constexpr double c[] = {
      1.0,                     -0.3333333333333333,     0.13333333333333333,
      -0.05396825396825397,    0.021869488536155203,    -0.008863235529902197,
      0.003592128036572481,    -0.0014558343870513183,  0.000590027440945586,
      -0.00023912911424355248, 9.691537956929451e-05,   -3.927832388331683e-05,
      1.5918905069328964e-05};
  double acc = c[12];
  for (int k = 11; k >= 0; --k) acc = acc * s + c[k];
  return acc;
}

/// The gain from |x| itself: compress the magnitude, keep the phase.
inline double soft_clip_gain_exact(double re, double im, double sat) noexcept {
  const double mag = std::abs(cplx(re, im));
  if (mag < 1e-300) return 1.0;
  return soft_clip(mag, sat) / mag;
}

inline double clip_gain(double re, double im, double sat, double inv_sat2) noexcept {
  const double s = (re * re + im * im) * inv_sat2;
  return s < kSmallSignalS ? tanh_ratio_poly(s) : soft_clip_gain_exact(re, im, sat);
}

}  // namespace

double soft_clip_gain(double re, double im, double sat) noexcept {
  return clip_gain(re, im, sat, 1.0 / (sat * sat));
}

void Lna::process(RealWaveform& x, double input_noise_variance, Rng& rng) const {
  const double added_var = excess_noise_factor_ * input_noise_variance;
  const double sigma = std::sqrt(std::max(added_var, 0.0));
  const double sat = saturation_amplitude(rms(x.samples()));
  for (auto& v : x.samples()) {
    if (sigma > 0.0) v += rng.gaussian(0.0, sigma);
    v = (sat > 0.0 ? soft_clip(v, sat) : v) * gain_amp_;
  }
}

void Lna::process(CplxWaveform& x, double input_noise_variance, Rng& rng) const {
  dsp::IqArena rails;
  rails.load(x.samples().data(), x.size());
  process_iq(rails.i.data(), rails.q.data(), x.size(), input_noise_variance, rng);
  rails.store(x.samples());
}

void Lna::process_iq(double* x_i, double* x_q, std::size_t n, double input_noise_variance,
                     Rng& rng) const {
  if (n == 0) return;
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += x_i[k] * x_i[k] + x_q[k] * x_q[k];
  const double sat = saturation_amplitude(std::sqrt(acc / static_cast<double>(n)));
  const double inv_sat2 = 1.0 / (sat * sat);
  const double added_var = excess_noise_factor_ * input_noise_variance;
  const double sigma = std::sqrt(std::max(added_var, 0.0));

  if (sigma > 0.0 || !(sat > 0.0)) {
    // Sample by sample: excess noise (real draw, then imaginary), then the
    // limiter on the noisy sample.
    for (std::size_t k = 0; k < n; ++k) {
      double re = x_i[k];
      double im = x_q[k];
      if (sigma > 0.0) {
        const cplx w = rng.cgaussian(sigma * sigma);
        re += w.real();
        im += w.imag();
      }
      const double g = sat > 0.0 ? clip_gain(re, im, sat, inv_sat2) : 1.0;
      x_i[k] = re * g * gain_amp_;
      x_q[k] = im * g * gain_amp_;
    }
    return;
  }

  // Noise-free input, in blocks: a branch-free polynomial pass that leaves
  // samples outside the small-signal region untouched, then a scalar pass
  // (skipped when the block had none) giving those the exact gain.
  constexpr std::size_t kBlock = 256;
  double s[kBlock];
  for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
    const std::size_t count = std::min(kBlock, n - k0);
    double* bi = x_i + k0;
    double* bq = x_q + k0;
    std::size_t large = 0;
    for (std::size_t t = 0; t < count; ++t) {
      s[t] = (bi[t] * bi[t] + bq[t] * bq[t]) * inv_sat2;
      const bool small = s[t] < kSmallSignalS;
      const double g = tanh_ratio_poly(s[t]);
      large += small ? 0 : 1;
      bi[t] = small ? bi[t] * g * gain_amp_ : bi[t];
      bq[t] = small ? bq[t] * g * gain_amp_ : bq[t];
    }
    for (std::size_t t = 0; large > 0 && t < count; ++t) {
      if (s[t] < kSmallSignalS) continue;
      const double g = soft_clip_gain_exact(bi[t], bq[t], sat);
      bi[t] = bi[t] * g * gain_amp_;
      bq[t] = bq[t] * g * gain_amp_;
      --large;
    }
  }
}

}  // namespace uwb::rf
