#pragma once
/// \file flash_adc.h
/// \brief Flash converter with per-comparator threshold offsets, and the
///        4-way time-interleaved wrapper of the gen-1 chip's "2 GSPS FLASH
///        Interleaved Analog to Digital Converter" (paper Fig. 1).

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace uwb::adc {

/// Flash ADC parameters.
struct FlashParams {
  int bits = 4;
  double full_scale = 1.0;
  double comparator_offset_sigma = 0.0;  ///< offset stddev as a fraction of one LSB
};

/// 2^bits - 1 comparators against a resistor ladder; each threshold carries
/// a static random offset (drawn once at construction, as in silicon).
class FlashAdc {
 public:
  FlashAdc(const FlashParams& params, Rng& rng);

  [[nodiscard]] int bits() const noexcept { return params_.bits; }
  [[nodiscard]] double full_scale() const noexcept { return params_.full_scale; }

  /// Scalar conversion (thermometer count over the ladder) and
  /// reconstruction: the reference a TimeInterleavedAdc lane's block
  /// conversion is held against.
  [[nodiscard]] int convert(double x) const noexcept;
  [[nodiscard]] double level_of(int code) const noexcept;

  /// The (offset-perturbed) threshold array, ascending.
  [[nodiscard]] const RealVec& thresholds() const noexcept { return thresholds_; }

 private:
  FlashParams params_;
  RealVec thresholds_;
  double lsb_;
};

/// Per-lane mismatch of the interleaved converter.
struct InterleaveMismatch {
  double gain_sigma = 0.0;       ///< lane gain error stddev (fraction, e.g. 0.01)
  double offset_sigma = 0.0;     ///< lane offset stddev (fraction of full scale)
  double timing_skew_sigma_s = 0.0;  ///< lane sample-time skew stddev [s]
};

/// M-way time-interleaved ADC: lane k converts samples k, k+M, k+2M, ...
/// Lane gain/offset mismatch is applied per conversion; timing skew is
/// handled upstream by SampleAndHold (which knows the analog waveform).
class TimeInterleavedAdc {
 public:
  /// Builds \p num_lanes flash sub-ADCs with independent comparator offsets
  /// and lane mismatch drawn from \p mismatch.
  TimeInterleavedAdc(int num_lanes, const FlashParams& lane_params,
                     const InterleaveMismatch& mismatch, Rng& rng);

  /// Single-precision block conversion (the gen-1 float sample arena):
  /// converts \p n samples and writes each one's reconstruction level. Each
  /// sample goes through the current lane, which then advances (call
  /// reset() at a packet boundary for reproducibility): the lane's
  /// gain/offset error perturbs the input, then a branch-free thermometer
  /// count runs against the lane's float-rounded ladder, built once at
  /// construction. With a shared full scale the reconstruction levels
  /// +/-(c + 0.5) * lsb are exact in float for converter resolutions up to
  /// the dyadic limit, so only samples within float rounding of a threshold
  /// can read another code than the lane's FlashAdc::convert().
  void convert_block(const float* x, std::size_t n, float* levels) noexcept;

  void reset() noexcept { lane_ = 0; }

  /// Points the lane counter at absolute sample \p index of a stream that
  /// began on lane 0 (reset() is seek(0)), so a window of the stream
  /// converts exactly as it would inside the whole.
  void seek(std::size_t index) noexcept { lane_ = index % lanes_.size(); }

  [[nodiscard]] int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] double lane_gain(int lane) const { return gains_.at(static_cast<std::size_t>(lane)); }
  [[nodiscard]] double lane_offset(int lane) const { return offsets_.at(static_cast<std::size_t>(lane)); }
  [[nodiscard]] double lane_skew_s(int lane) const { return skews_s_.at(static_cast<std::size_t>(lane)); }

 private:
  std::vector<FlashAdc> lanes_;
  RealVec gains_;
  RealVec offsets_;
  RealVec skews_s_;
  std::size_t lane_ = 0;

  // Float mirrors for the single-precision block path, built once at
  // construction: per-lane ladders padded to a multiple of 8 with +inf (the
  // thermometer count loop then has a fixed vectorizable trip count).
  std::vector<std::vector<float>> thr_f_;
  std::vector<float> gains_f_;
  std::vector<float> offsets_f_;
  float level_base_f_ = 0.0f;  ///< level_of(0) = -full_scale + lsb/2
  float lsb_f_ = 0.0f;
  // Transposed ladder for the pattern-blocked 4-lane path: row t holds
  // threshold t of every lane, so a block of num_lanes consecutive samples
  // compares against contiguous unit-stride rows (vectorizes across the
  // block instead of needing a horizontal reduction per sample). Padded
  // with +inf rows to a multiple of 4, so the row loop takes 4 per step.
  std::vector<float> thr_t_;
  std::size_t thr_rows_ = 0;  ///< ladder length (2^bits - 1) rounded up to a multiple of 4
};

}  // namespace uwb::adc
