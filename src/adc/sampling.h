#pragma once
/// \file sampling.h
/// \brief Sample-and-hold front end: rate reduction from the "analog"
///        (oversampled) waveform to the ADC clock, with aperture jitter and
///        per-lane timing skew via fractional-delay interpolation.

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::adc {

/// Sampling parameters.
struct SamplingParams {
  double adc_rate_hz = 2e9;
  double aperture_jitter_rms_s = 0.0;
  double phase_offset_s = 0.0;  ///< static sampling-phase offset
};

/// Samples an oversampled "analog" waveform at the ADC clock. The input
/// rate must be an integer multiple of adc_rate_hz; sampling instants are
/// t_k = k/adc_rate + phase_offset + jitter_k, evaluated by linear
/// interpolation of the input.
class SampleAndHold {
 public:
  explicit SampleAndHold(const SamplingParams& params);

  [[nodiscard]] const SamplingParams& params() const noexcept { return params_; }

  [[nodiscard]] RealWaveform sample(const RealWaveform& analog, Rng& rng) const;

  /// Complex sampling on split I/Q rails of \p x_len samples at \p fs_in:
  /// both rails share each sampling instant (one jitter draw per output
  /// sample) and interpolate with the same weights. Writes
  /// output_size(x_len, fs_in) samples to \p out_i / \p out_q (zeros where
  /// an instant falls outside the input) and returns that count.
  std::size_t sample_iq_to(const double* x_i, const double* x_q, std::size_t x_len,
                           double fs_in, Rng& rng, double* out_i, double* out_q) const;

  /// Per-lane skewed sampling (time-interleaved converters): lane k of
  /// \p num_lanes has an extra static skew \p lane_skews_s[k].
  [[nodiscard]] RealWaveform sample_interleaved(const RealWaveform& analog,
                                                const RealVec& lane_skews_s, Rng& rng) const;

  /// Number of output samples produced from \p x_len input samples at rate
  /// \p fs_in -- pre-size the buffer handed to sample_interleaved_to().
  [[nodiscard]] std::size_t output_size(std::size_t x_len, double fs_in) const noexcept;

  /// Interleaved sampling into a caller-owned buffer of output_size()
  /// doubles. Bit-identical to sample_interleaved(); with zero aperture
  /// jitter the inner loop runs a branch-free per-lane path that never
  /// touches the RNG. Returns the number of samples written.
  std::size_t sample_interleaved_to(const double* x, std::size_t x_len, double fs_in,
                                    const RealVec& lane_skews_s, Rng& rng,
                                    double* out) const;

  /// Single-precision variant (the gen-1 float sample arena). Sampling
  /// instants are still computed in double; the jitter-free lane path
  /// replaces the per-sample division by a reciprocal multiply (the float
  /// path carries no bit-identity contract) and the interpolation itself
  /// runs in float.
  std::size_t sample_interleaved_to(const float* x, std::size_t x_len, double fs_in,
                                    const RealVec& lane_skews_s, Rng& rng,
                                    float* out) const;

 private:
  template <typename T>
  [[nodiscard]] std::vector<T> sample_impl(const std::vector<T>& x, double fs_in,
                                           const RealVec* lane_skews, Rng& rng) const;

  SamplingParams params_;
};

}  // namespace uwb::adc
