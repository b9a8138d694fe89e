#pragma once
/// \file synthesizer.h
/// \brief Frequency synthesizer model for the 14-channel band plan: channel
///        switching with settling time, and LO phase noise as a filtered
///        random-walk process ("PLL/DLL" block of the paper's Fig. 3).

#include "common/rng.h"
#include "common/types.h"
#include "pulse/band_plan.h"

namespace uwb::rf {

/// Synthesizer parameters.
struct SynthesizerParams {
  double settle_time_s = 2e-6;        ///< channel-switch settling
  double phase_noise_rms_rad = 0.0;   ///< integrated phase noise
  double loop_bandwidth_hz = 1e6;     ///< PLL loop bandwidth (noise shaping)
};

/// Channel-hopping LO with phase noise.
class Synthesizer {
 public:
  Synthesizer(const pulse::BandPlan& plan, const SynthesizerParams& params);

  [[nodiscard]] const SynthesizerParams& params() const noexcept { return params_; }

  /// Currently selected channel index.
  [[nodiscard]] int channel() const noexcept { return channel_; }


  /// Switches to \p channel; returns the settle time the hop costs.
  double tune(int channel);

  /// Generates \p n samples of LO phase error (rad) at \p fs: white phase
  /// noise shaped by a one-pole lowpass at the loop bandwidth, scaled to the
  /// configured RMS. All zeros when phase_noise_rms_rad == 0.
  [[nodiscard]] RealVec phase_noise(std::size_t n, double fs, Rng& rng) const;

  /// Applies phase noise multiplicatively to a complex baseband waveform:
  /// y[n] = x[n] e^{j theta[n]}.
  void apply_phase_noise(CplxVec& x, double fs, Rng& rng) const;

 private:
  const pulse::BandPlan& plan_;
  SynthesizerParams params_;
  int channel_ = 0;
};

}  // namespace uwb::rf
