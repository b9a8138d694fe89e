#pragma once
/// \file sampling.h
/// \brief Sample-and-hold front end: rate reduction from the "analog"
///        (oversampled) waveform to the ADC clock, with aperture jitter and
///        per-lane timing skew via fractional-delay interpolation.

#include <optional>
#include <utility>

#include "common/rng.h"
#include "common/types.h"

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

  /// Complex sampling on split I/Q rails of \p x_len samples at \p fs_in:
  /// both rails share each sampling instant (one jitter draw per output
  /// sample) and interpolate with the same weights. Writes
  /// output_size(x_len, fs_in) samples to \p out_i / \p out_q (zeros where
  /// an instant falls outside the input) and returns that count.
  std::size_t sample_iq_to(const double* x_i, const double* x_q, std::size_t x_len,
                           double fs_in, Rng& rng, double* out_i, double* out_q) const;

  /// Number of output samples produced from \p x_len input samples at rate
  /// \p fs_in -- pre-size the buffer handed to sample_interleaved_to().
  [[nodiscard]] std::size_t output_size(std::size_t x_len, double fs_in) const noexcept;

  /// Per-lane skewed sampling of the gen-1 float sample arena into a
  /// caller-owned buffer of output_size() floats: lane k of the
  /// time-interleaved converter has an extra static skew \p lane_skews_s[k].
  /// Sampling instants are computed in double; the jitter-free lane path
  /// replaces the per-sample division by a reciprocal multiply and the
  /// interpolation itself runs in float. Returns the number of samples
  /// written.
  std::size_t sample_interleaved_to(const float* x, std::size_t x_len, double fs_in,
                                    const RealVec& lane_skews_s, Rng& rng,
                                    float* out) const;

  /// The lane geometry of a float stream whose every output is a pure
  /// function of its index and the input: jitter-free, an integer
  /// oversampling ratio and at most 64 lanes (the gen-1 chip's 4 GS/s over
  /// 2 GS/s). Output k reads input samples k*stride + off[l] and the next,
  /// with constant per-lane weights, l = k mod num_lanes; so any window of
  /// the stream can be sampled on its own.
  struct LanePlan {
    std::size_t num_lanes = 0;
    std::size_t stride = 1;
    std::ptrdiff_t off[64] = {};
    float w0[64] = {};
    float w1[64] = {};
    std::ptrdiff_t min_off = 0;  ///< min(0, off[l])
    std::ptrdiff_t max_off = 0;  ///< max(0, off[l])

    /// The input samples [first, last) that outputs [k_begin, k_end) read,
    /// clamped to [0, x_len).
    [[nodiscard]] std::pair<std::size_t, std::size_t> input_span(
        std::size_t k_begin, std::size_t k_end, std::size_t x_len) const noexcept;

    /// Outputs [k_begin, k_end) of sample_interleaved_to() over
    /// an \p x_len-sample input, into out[0, k_end - k_begin) and
    /// bit-identical to the whole-stream call. Reads the input only through
    /// \p x_first, which holds input samples from
    /// input_span(k_begin, k_end, x_len).first on; zeros where an instant
    /// falls outside the input.
    void sample_to(const float* x_first, std::size_t x_len, std::size_t k_begin,
                   std::size_t k_end, float* out) const noexcept;
  };

  /// The float stream's lane plan at input rate \p fs_in, or nullopt when
  /// it has none (aperture jitter draws the Rng in stream order; a
  /// fractional ratio moves each lane's phase).
  [[nodiscard]] std::optional<LanePlan> lane_plan(double fs_in,
                                                  const RealVec& lane_skews_s) const;

 private:
  SamplingParams params_;
};

}  // namespace uwb::adc
