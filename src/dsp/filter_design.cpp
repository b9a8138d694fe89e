#include "dsp/filter_design.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::dsp {

RealVec design_lowpass(double cutoff_hz, double fs, std::size_t num_taps, WindowType window) {
  detail::require(num_taps >= 3, "design_lowpass: need at least 3 taps");
  detail::require(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
                  "design_lowpass: cutoff must lie in (0, fs/2)");
  const double fc = cutoff_hz / fs;  // normalized to sample rate
  const RealVec w = make_window(window, num_taps);
  RealVec taps(num_taps);
  const double center = (static_cast<double>(num_taps) - 1.0) / 2.0;
  double dc = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    taps[i] = 2.0 * fc * sinc(2.0 * fc * t) * w[i];
    dc += taps[i];
  }
  // Unit DC gain.
  for (auto& v : taps) v /= dc;
  return taps;
}

RealVec design_root_raised_cosine(double symbol_rate_hz, double beta, int span_symbols,
                                  int samples_per_symbol) {
  detail::require(beta > 0.0 && beta <= 1.0, "rrc: beta must be in (0,1]");
  detail::require(span_symbols >= 1 && samples_per_symbol >= 1,
                  "rrc: span and oversampling must be >= 1");
  const double T = 1.0 / symbol_rate_hz;
  const double dt = T / samples_per_symbol;
  const int half = span_symbols * samples_per_symbol;
  RealVec taps(static_cast<std::size_t>(2 * half + 1));
  for (int i = -half; i <= half; ++i) {
    const double t = i * dt;
    double value;
    if (std::abs(t) < 1e-15) {
      value = 1.0 - beta + 4.0 * beta / pi;
    } else if (std::abs(std::abs(t) - T / (4.0 * beta)) < 1e-12 * T) {
      value = (beta / std::numbers::sqrt2) *
              ((1.0 + 2.0 / pi) * std::sin(pi / (4.0 * beta)) +
               (1.0 - 2.0 / pi) * std::cos(pi / (4.0 * beta)));
    } else {
      const double x = t / T;
      const double num = std::sin(pi * x * (1.0 - beta)) +
                         4.0 * beta * x * std::cos(pi * x * (1.0 + beta));
      const double den = pi * x * (1.0 - 16.0 * beta * beta * x * x) / 1.0;
      value = num / den;
    }
    taps[static_cast<std::size_t>(i + half)] = value;
  }
  // Unit energy normalization.
  double e = 0.0;
  for (double v : taps) e += v * v;
  const double g = 1.0 / std::sqrt(e);
  for (auto& v : taps) v *= g;
  return taps;
}

cplx fir_response_at(const RealVec& taps, double freq_hz, double fs) {
  cplx acc{0.0, 0.0};
  const double w = two_pi * freq_hz / fs;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    acc += taps[i] * cplx(std::cos(w * static_cast<double>(i)),
                          -std::sin(w * static_cast<double>(i)));
  }
  return acc;
}

double fir_gain_db_at(const RealVec& taps, double freq_hz, double fs) {
  return amp_to_db(std::abs(fir_response_at(taps, freq_hz, fs)) + 1e-300);
}

}  // namespace uwb::dsp
