#pragma once
/// \file pulse_shape.h
/// \brief Baseband UWB pulse prototypes: Gaussian family (as radiated by
///        impulse transmitters like the paper's gen-1 chip) and filtered
///        pulses confined to a 500 MHz channel (gen-2 / Fig. 4 style).
///
/// All generators return a baseband RealWaveform sampled at \p fs, peak
/// amplitude 1 unless noted. Upconversion to a band-plan channel is done by
/// uwb::rf::Upconverter.

#include <cstddef>

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::pulse {

/// Shapes supported by make_pulse().
enum class PulseShape {
  kGaussian,        ///< plain Gaussian envelope
  kGaussianMono,    ///< first derivative (monocycle) -- classic impulse UWB
  kGaussianDoublet, ///< second derivative (doublet / "Mexican hat")
  kRootRaisedCos,   ///< RRC-filtered, band-confined (gen-2 / Fig. 4)
  kRectangular,     ///< ideal rectangular envelope (analysis reference)
};

/// Parameters describing one pulse.
struct PulseSpec {
  PulseShape shape = PulseShape::kRootRaisedCos;
  double bandwidth_hz = 500e6;  ///< -10 dB two-sided target bandwidth
  double sample_rate_hz = 2e9;  ///< generation sample rate
  double rrc_beta = 0.5;        ///< RRC roll-off (kRootRaisedCos only)
  int rrc_span_symbols = 4;     ///< RRC one-sided span in symbols
};

/// Gaussian pulse exp(-t^2 / (2 sigma^2)), truncated at +/- 4 sigma.
/// \p sigma_s sets the width; -10 dB bandwidth ~ 0.53/sigma.
RealWaveform gaussian_pulse(double sigma_s, double fs);

/// Gaussian monocycle (1st derivative), peak normalized to 1.
RealWaveform gaussian_monocycle(double sigma_s, double fs);

/// Gaussian doublet (2nd derivative), peak normalized to 1.
RealWaveform gaussian_doublet(double sigma_s, double fs);

/// Root-raised-cosine pulse occupying ~bandwidth_hz (two-sided) at baseband.
RealWaveform rrc_pulse(double bandwidth_hz, double beta, int span_symbols, double fs);

/// Rectangular pulse of the given duration.
RealWaveform rectangular_pulse(double duration_s, double fs);

/// Dispatch on PulseSpec. The Gaussian family maps bandwidth -> sigma so all
/// shapes hit approximately the same -10 dB bandwidth.
RealWaveform make_pulse(const PulseSpec& spec);

/// Sigma that gives a Gaussian pulse the requested -10 dB bandwidth.
double gaussian_sigma_for_bandwidth(double bandwidth_hz);

/// Duration between the first and last samples exceeding \p fraction of the
/// pulse peak (e.g. 0.01 for the "visible" duration in Fig. 4).
double pulse_duration(const RealWaveform& p, double fraction = 0.01);

}  // namespace uwb::pulse
