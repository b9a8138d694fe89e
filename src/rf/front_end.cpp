#include "rf/front_end.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/aligned.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/resampler.h"

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

double cascade_noise_figure_db(const std::vector<CascadeStage>& stages) {
  detail::require(!stages.empty(), "cascade_noise_figure_db: empty chain");
  double f_total = 0.0;
  double gain_product = 1.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const double f = from_db(stages[i].noise_figure_db);
    if (i == 0) {
      f_total = f;
    } else {
      f_total += (f - 1.0) / gain_product;
    }
    gain_product *= from_db(stages[i].gain_db);
  }
  return to_db(f_total);
}

FrontEnd::FrontEnd(const FrontEndParams& params, const pulse::BandPlan& plan)
    : params_(params), plan_(plan), lna_(params.lna), synth_(plan, params.synth),
      agc_(params.agc) {
  anti_alias_taps_ = dsp::design_lowpass(params.baseband_cutoff_hz, params.analog_fs,
                                         params.anti_alias_taps);
}

void FrontEnd::set_notch(double f0_offset_hz, double fs) {
  notch_.emplace(f0_offset_hz, fs);
}

double FrontEnd::system_noise_figure_db() const {
  // LNA -> mixer (assumed 10 dB NF, 0 dB conversion gain) -> baseband VGA
  // (15 dB NF). Representative 2005-era direct-conversion numbers.
  return cascade_noise_figure_db({
      {"lna", params_.lna.gain_db, params_.lna.noise_figure_db},
      {"mixer", 0.0, 10.0},
      {"vga", 20.0, 15.0},
  });
}

CplxWaveform FrontEnd::process_baseband(const CplxWaveform& x, double input_noise_variance,
                                        Rng& rng) {
  detail::require(x.sample_rate() == params_.analog_fs,
                  "FrontEnd::process_baseband: configure analog_fs to match the input");
  dsp::IqArena rails;
  rails.load(x.samples().data(), x.size());
  process_baseband(rails.i.data(), rails.q.data(), x.size(), input_noise_variance, rng);
  CplxWaveform y(0, x.sample_rate());
  rails.store(y.samples());
  return y;
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
    const CplxWaveform y = notch_->process(CplxWaveform(to_complex(x_i, x_q, n), fs));
    from_complex(y.samples(), x_i, x_q);
  }
  // AGC loads the ADC.
  if (params_.enable_agc) agc_.one_shot(x_i, x_q, n);
}

CplxWaveform FrontEnd::process_passband(const RealWaveform& rf, double input_noise_variance,
                                        int decim, Rng& rng) {
  detail::require(decim >= 1, "process_passband: decimation must be >= 1");
  RealWaveform amplified = rf;
  lna_.process(amplified, input_noise_variance, rng);

  Downconverter down(synth_.frequency(), params_.baseband_cutoff_hz, rf.sample_rate(),
                     params_.iq);
  CplxWaveform bb = down.process(amplified);
  synth_.apply_phase_noise(bb.samples(), bb.sample_rate(), rng);

  if (decim > 1) {
    bb = CplxWaveform(dsp::downsample_raw(bb.samples(), decim), bb.sample_rate() / decim);
  }
  if (notch_.has_value()) {
    notch_->reset();
    // Re-tune the notch object to the decimated rate domain if needed: the
    // notch was configured by set_notch with an explicit fs, trust it.
    bb = notch_->process(bb);
  }
  if (params_.enable_agc) {
    bb = agc_.one_shot(bb);
  }
  return bb;
}

}  // namespace uwb::rf
