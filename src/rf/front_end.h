#pragma once
/// \file front_end.h
/// \brief The composed receive front end of Fig. 3: LNA -> quadrature
///        direct-conversion mixer -> (optional notch) -> VGA/AGC, plus the
///        Friis cascade arithmetic that turns per-stage specs into a system
///        noise figure.
///
/// Two processing paths:
///  * Passband path (process_passband): real RF at a high sample rate goes
///    through the actual mixer. Used by the demos and the Fig. 4 bench.
///  * Baseband-equivalent path (process_baseband): for Monte-Carlo BER at
///    2 GS/s complex baseband; the same impairments (compression, I/Q
///    imbalance, DC offset, phase noise, notch, AGC) applied without
///    synthesizing a 21+ GS/s carrier.

#include <optional>

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"
#include "pulse/band_plan.h"
#include "rf/agc.h"
#include "rf/lna.h"
#include "rf/mixer.h"
#include "rf/notch_filter.h"
#include "rf/synthesizer.h"

namespace uwb::rf {

/// One gain stage for the Friis cascade.
struct CascadeStage {
  const char* name = "stage";
  double gain_db = 0.0;
  double noise_figure_db = 0.0;
};

/// Cascaded noise figure (dB) of a chain of stages (Friis formula).
double cascade_noise_figure_db(const std::vector<CascadeStage>& stages);

/// Front-end configuration.
struct FrontEndParams {
  LnaParams lna{};
  IqImpairments iq{};
  SynthesizerParams synth{};
  AgcParams agc{};
  double baseband_cutoff_hz = 300e6;  ///< anti-alias lowpass (one-sided)
  double analog_fs = 4e9;             ///< rate the baseband path runs at
  std::size_t anti_alias_taps = 63;
  bool enable_agc = true;
};

/// The gen-2 receive front end.
class FrontEnd {
 public:
  FrontEnd(const FrontEndParams& params, const pulse::BandPlan& plan);

  [[nodiscard]] const FrontEndParams& params() const noexcept { return params_; }

  /// Tunes the LO to a band-plan channel; returns settle time [s].
  double tune(int channel) { return synth_.tune(channel); }
  [[nodiscard]] int channel() const noexcept { return synth_.channel(); }

  /// Enables the notch at the given baseband offset frequency (driven by
  /// the digital spectral monitor).
  void set_notch(double f0_offset_hz, double fs);

  /// Disables the notch.
  void clear_notch() noexcept { notch_.reset(); }

  [[nodiscard]] bool notch_enabled() const noexcept { return notch_.has_value(); }

  /// System noise figure of this configuration [dB].
  [[nodiscard]] double system_noise_figure_db() const;

  /// Baseband-equivalent receive processing (see file comment).
  /// \p input_noise_variance is the per-sample noise power already on x
  /// (the LNA adds its excess noise relative to this).
  [[nodiscard]] CplxWaveform process_baseband(const CplxWaveform& x,
                                              double input_noise_variance, Rng& rng);

  /// The same processing in place on split I/Q rails of \p n samples at
  /// analog_fs: the LNA, the anti-alias FIR and the AGC all overwrite the
  /// rails, so a warm caller-owned capture costs no allocation.
  void process_baseband(double* x_i, double* x_q, std::size_t n,
                        double input_noise_variance, Rng& rng);

  /// Full passband path: LNA, downconversion at the tuned channel,
  /// decimation by \p decim down to the ADC rate.
  [[nodiscard]] CplxWaveform process_passband(const RealWaveform& rf,
                                              double input_noise_variance, int decim,
                                              Rng& rng);

 private:
  FrontEndParams params_;
  const pulse::BandPlan& plan_;
  Lna lna_;
  Synthesizer synth_;
  Agc agc_;
  std::optional<ComplexNotch> notch_;
  RealVec anti_alias_taps_;  ///< baseband anti-alias lowpass at analog_fs
};

}  // namespace uwb::rf
