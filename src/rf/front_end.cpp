#include "rf/front_end.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"

namespace uwb::rf {

namespace {

CplxVec to_complex(const double* x_i, const double* x_q, std::size_t n) {
  CplxVec out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = {x_i[k], x_q[k]};
  return out;
}

void from_complex(const CplxVec& x, double* x_i, double* x_q) {
  for (std::size_t k = 0; k < x.size(); ++k) {
    x_i[k] = x[k].real();
    x_q[k] = x[k].imag();
  }
}

}  // namespace

FrontEnd::FrontEnd(const FrontEndParams& params, const pulse::BandPlan& plan)
    : params_(params), lna_(params.lna), synth_(plan, params.synth),
      agc_(params.agc) {
  anti_alias_taps_ = dsp::design_lowpass(params.baseband_cutoff_hz, params.analog_fs,
                                         params.anti_alias_taps);
}

void FrontEnd::set_notch(double f0_offset_hz) {
  notch_.emplace(f0_offset_hz, params_.analog_fs);
}

void FrontEnd::process_baseband(double* x_i, double* x_q, std::size_t n,
                                double input_noise_variance, Rng& rng) {
  const double fs = params_.analog_fs;
  // LNA: excess noise + envelope compression + gain.
  lna_.process_iq(x_i, x_q, n, input_noise_variance, rng);
  // LO phase noise (multiplicative) and direct-conversion I/Q impairments:
  // off in every default configuration, so they run on complex samples.
  if (synth_.params().phase_noise_rms_rad > 0.0 || !params_.iq.ideal()) {
    CplxWaveform y(to_complex(x_i, x_q, n), fs);
    synth_.apply_phase_noise(y.samples(), fs, rng);
    if (!params_.iq.ideal()) y = apply_iq_impairments(y, params_.iq);
    from_complex(y.samples(), x_i, x_q);
  }
  // Anti-alias lowpass ahead of the converters (the baseband filter of the
  // direct-conversion chain). Without it, wideband noise folds into the
  // ADC's Nyquist band and costs several dB of effective Eb/N0.
  dsp::convolve_same_inplace(x_i, n, anti_alias_taps_);
  dsp::convolve_same_inplace(x_q, n, anti_alias_taps_);
  // Optional interferer notch.
  if (notch_.has_value()) {
    notch_->reset();
    notch_->process(x_i, x_q, n);
  }
  // AGC loads the ADC.
  if (params_.enable_agc) agc_.one_shot(x_i, x_q, n);
}

}  // namespace uwb::rf
