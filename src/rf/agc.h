#pragma once
/// \file agc.h
/// \brief Variable-gain amplifier with an automatic gain control loop that
///        loads the ADC optimally -- critical at 1-5 bit resolutions where
///        both clipping and underloading destroy the paper's resolution
///        trade-offs.

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::rf {

/// AGC parameters.
struct AgcParams {
  double target_rms = 0.25;       ///< desired rms relative to ADC full scale 1.0
  double min_gain_db = -40.0;
  double max_gain_db = 60.0;
  std::size_t window = 256;       ///< power-measurement window (samples)
  double step_db = 1.0;           ///< per-window gain adjustment (loop mode)
};

/// Gain control. Two modes:
///  * one_shot(): measure the whole buffer, set the exact gain (models a
///    converged AGC during the preamble -- what BER sims use).
///  * track(): windowed feedback loop with step_db moves (models dynamics).
class Agc {
 public:
  explicit Agc(const AgcParams& params = {});

  [[nodiscard]] const AgcParams& params() const noexcept { return params_; }
  [[nodiscard]] double gain_db() const noexcept { return gain_db_; }

  /// Measures rms of \p x and applies the exact gain to hit target_rms,
  /// clamped to the gain range. Returns the gained signal.
  CplxWaveform one_shot(const CplxWaveform& x);
  RealWaveform one_shot(const RealWaveform& x);

  /// Split-I/Q one_shot: measures the rms of the \p n-sample rails and
  /// applies the same gain to both in place.
  void one_shot(double* i, double* q, std::size_t n);

  /// Windowed tracking loop; gain_db() holds the final gain afterwards.
  CplxWaveform track(const CplxWaveform& x);

  void reset() noexcept { gain_db_ = 0.0; }

 private:
  /// Sets gain_db_ for a measured rms (clamped); returns the linear gain.
  double set_gain_for_rms(double r);

  AgcParams params_;
  double gain_db_ = 0.0;
};

}  // namespace uwb::rf
