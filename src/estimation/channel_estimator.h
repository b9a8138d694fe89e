#pragma once
/// \file channel_estimator.h
/// \brief Preamble-based channel impulse response estimation with n-bit tap
///        quantization -- the paper's "channel impulse response is estimated
///        with a precision of up to four bits during the packet preamble"
///        (Section 3). The estimate feeds the RAKE and Viterbi demodulator.

#include "channel/cir.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::estimation {

/// Estimator configuration.
struct ChannelEstimatorConfig {
  int quantization_bits = 4;     ///< per-component tap precision (0 = float)
  double tap_threshold_db = -20.0;  ///< discard taps below this vs strongest
  std::size_t max_taps = 64;     ///< cap on reported taps
  std::size_t max_delay_samples = 256;  ///< estimation window after the first path
};

/// Raw (sample-spaced) channel estimate plus bookkeeping.
struct ChannelEstimate {
  channel::Cir cir;              ///< quantized, thresholded estimate
  CplxVec raw_taps;              ///< unquantized correlator profile
  std::size_t reference_offset = 0;  ///< sample index of the first path in x
  std::size_t profile_start = 0;     ///< sample index of raw_taps[0] in x
  std::size_t peak_index = 0;        ///< strongest raw tap (into raw_taps)
  double peak_magnitude = 0.0;

  /// Absolute sample index of the strongest path in x -- the natural
  /// symbol-timing reference for slicer/MLSE observation.
  [[nodiscard]] std::size_t peak_offset() const noexcept {
    return profile_start + peak_index;
  }
};

/// Correlation channel sounder.
///
/// The preamble repeats a known template; correlating the received signal
/// against it yields the composite impulse response (pulse autocorrelation
/// convolved with the channel). Taps are normalized to the strongest path,
/// quantized component-wise to quantization_bits (sign + magnitude levels
/// over [-1, 1]), thresholded, and returned as a Cir whose delays are
/// relative to the first reported path.
class ChannelEstimator {
 public:
  explicit ChannelEstimator(const ChannelEstimatorConfig& config);

  [[nodiscard]] const ChannelEstimatorConfig& config() const noexcept { return config_; }

  /// Estimates from a received buffer \p x (starting at or before the
  /// preamble) and the known preamble waveform \p tmpl. \p coarse_offset is
  /// the acquisition's timing estimate; the sounder searches +/- a small
  /// window around it for the true first path.
  [[nodiscard]] ChannelEstimate estimate(const CplxWaveform& x, const CplxVec& tmpl,
                                         std::size_t coarse_offset) const;

  /// Quantizes a single complex tap to the configured precision; exposed
  /// for the precision-sweep bench (E6).
  [[nodiscard]] cplx quantize_tap(cplx tap, double full_scale) const;

 private:
  ChannelEstimatorConfig config_;
};

}  // namespace uwb::estimation
