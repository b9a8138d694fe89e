#include "rf/mixer.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

Upconverter::Upconverter(double lo_freq_hz, double fs, const IqImpairments& impairments)
    : lo_freq_(lo_freq_hz), fs_(fs), imp_(impairments) {
  detail::require(lo_freq_hz > 0.0 && lo_freq_hz < fs / 2.0,
                  "Upconverter: LO must be in (0, fs/2)");
  const double half_imb = db_to_amp(imp_.gain_imbalance_db / 2.0);
  gain_i_ = half_imb;
  gain_q_ = 1.0 / half_imb;
}

RealWaveform Upconverter::process(const CplxWaveform& baseband) const {
  detail::require(baseband.sample_rate() == fs_, "Upconverter: sample-rate mismatch");
  const std::size_t n = baseband.size();
  const double w = two_pi * lo_freq_ / fs_;
  const double lo_leak_amp = db_to_amp(imp_.lo_leakage_db);
  RealVec rf(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = w * static_cast<double>(i);
    const double i_bb = (baseband[i].real() + imp_.dc_offset_i) * gain_i_;
    const double q_bb = (baseband[i].imag() + imp_.dc_offset_q) * gain_q_;
    rf[i] = i_bb * std::cos(t) - q_bb * std::sin(t + imp_.phase_imbalance_rad) +
            lo_leak_amp * std::cos(t);
  }
  return RealWaveform(std::move(rf), fs_);
}

CplxWaveform apply_iq_impairments(const CplxWaveform& x, const IqImpairments& imp) {
  // Baseband-equivalent imbalance: y = a x + b conj(x) + dc, where
  // a = (gi + gq e^{-j phi})/2, b = (gi - gq e^{+j phi})/2.
  const double half_imb = db_to_amp(imp.gain_imbalance_db / 2.0);
  const double gi = half_imb, gq = 1.0 / half_imb;
  const cplx e_minus = std::polar(1.0, -imp.phase_imbalance_rad);
  const cplx e_plus = std::polar(1.0, imp.phase_imbalance_rad);
  const cplx a = 0.5 * (gi + gq * e_minus);
  const cplx b = 0.5 * (gi - gq * e_plus);
  const cplx dc(imp.dc_offset_i, imp.dc_offset_q);

  CplxVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = a * x[i] + b * std::conj(x[i]) + dc;
  }
  return CplxWaveform(std::move(out), x.sample_rate());
}

}  // namespace uwb::rf
