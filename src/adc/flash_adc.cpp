#include "adc/flash_adc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace uwb::adc {

FlashAdc::FlashAdc(const FlashParams& params, Rng& rng) : params_(params) {
  detail::require(params.bits >= 1 && params.bits <= 10, "FlashAdc: bits must be in [1,10]");
  detail::require(params.full_scale > 0.0, "FlashAdc: full scale must be positive");
  const int num_codes = 1 << params.bits;
  lsb_ = 2.0 * params.full_scale / num_codes;
  thresholds_.resize(static_cast<std::size_t>(num_codes - 1));
  for (int k = 1; k < num_codes; ++k) {
    const double nominal = -params.full_scale + k * lsb_;
    const double offset = rng.gaussian(0.0, params.comparator_offset_sigma * lsb_);
    thresholds_[static_cast<std::size_t>(k - 1)] = nominal + offset;
  }
  // A real flash keeps its ladder ordered even with offsets: bubble-error
  // correction in the thermometer decoder amounts to sorting.
  std::sort(thresholds_.begin(), thresholds_.end());
}

int FlashAdc::convert(double x) const noexcept {
  // Thermometer: count comparators tripped (thresholds ascending).
  const auto it = std::upper_bound(thresholds_.begin(), thresholds_.end(), x);
  return static_cast<int>(std::distance(thresholds_.begin(), it));
}

double FlashAdc::level_of(int code) const noexcept {
  const int num_codes = 1 << params_.bits;
  const int c = std::clamp(code, 0, num_codes - 1);
  return -params_.full_scale + (static_cast<double>(c) + 0.5) * lsb_;
}

TimeInterleavedAdc::TimeInterleavedAdc(int num_lanes, const FlashParams& lane_params,
                                       const InterleaveMismatch& mismatch, Rng& rng) {
  detail::require(num_lanes >= 1 && num_lanes <= 64,
                  "TimeInterleavedAdc: lanes must be in [1,64]");
  lanes_.reserve(static_cast<std::size_t>(num_lanes));
  for (int k = 0; k < num_lanes; ++k) {
    lanes_.emplace_back(lane_params, rng);
    gains_.push_back(1.0 + rng.gaussian(0.0, mismatch.gain_sigma));
    offsets_.push_back(rng.gaussian(0.0, mismatch.offset_sigma * lane_params.full_scale));
    skews_s_.push_back(rng.gaussian(0.0, mismatch.timing_skew_sigma_s));
  }
  // Float mirrors for the single-precision block path. Ladders are padded
  // to a multiple of 8 with +inf so the count loop's trip count is fixed
  // and vectorizable; +inf never trips a comparator.
  const double lsb = 2.0 * lane_params.full_scale / (1 << lane_params.bits);
  lsb_f_ = static_cast<float>(lsb);
  level_base_f_ = static_cast<float>(-lane_params.full_scale + 0.5 * lsb);
  thr_f_.resize(lanes_.size());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const RealVec& thr = lanes_[k].thresholds();
    const std::size_t padded = (thr.size() + 7) / 8 * 8;
    thr_f_[k].assign(padded, std::numeric_limits<float>::infinity());
    for (std::size_t t = 0; t < thr.size(); ++t) {
      thr_f_[k][t] = static_cast<float>(thr[t]);
    }
    gains_f_.push_back(static_cast<float>(gains_[k]));
    offsets_f_.push_back(static_cast<float>(offsets_[k]));
  }
  const std::size_t ladder = lanes_.front().thresholds().size();
  thr_rows_ = (ladder + 3) / 4 * 4;
  thr_t_.assign(thr_rows_ * lanes_.size(), std::numeric_limits<float>::infinity());
  for (std::size_t t = 0; t < ladder; ++t) {
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      thr_t_[t * lanes_.size() + k] = static_cast<float>(lanes_[k].thresholds()[t]);
    }
  }
}

void TimeInterleavedAdc::convert_block(const float* x, std::size_t n,
                                       float* levels) noexcept {
  const std::size_t num_lanes = lanes_.size();
  std::size_t lane = lane_;
  std::size_t i = 0;
  const auto convert_one = [&] {
    const float v = gains_f_[lane] * x[i] + offsets_f_[lane];
    const float* thr = thr_f_[lane].data();
    const std::size_t num_thr = thr_f_[lane].size();  // padded, multiple of 8
    std::int32_t code = 0;
    for (std::size_t t = 0; t < num_thr; ++t) {
      code += static_cast<std::int32_t>(thr[t] <= v);
    }
    levels[i] = level_base_f_ + static_cast<float>(code) * lsb_f_;
    lane = (lane + 1) % num_lanes;
  };
  // Pattern-blocked path for the gen-1 4-lane converter: from the first
  // lane-0 sample on, four consecutive samples hit lanes 0..3, so each
  // transposed ladder row compares 4-wide against the block in one vector
  // register (GCC/Clang vector extension). The compares, counts and level
  // arithmetic are the scalar path's, lane by lane, so the levels are
  // bit-identical.
  if (num_lanes == 4) {
    for (; i < n && lane != 0; ++i) convert_one();
    using Vec4f = float __attribute__((vector_size(16)));
    using Vec4i = std::int32_t __attribute__((vector_size(16)));
    Vec4f gain;
    Vec4f offset;
    std::memcpy(&gain, gains_f_.data(), sizeof gain);
    std::memcpy(&offset, offsets_f_.data(), sizeof offset);
    const float* rows_end = thr_t_.data() + thr_rows_ * 4;
    for (; i + 4 <= n; i += 4) {
      Vec4f in;
      std::memcpy(&in, x + i, sizeof in);
      const Vec4f v = gain * in + offset;
      // Four rows per step into two counts (a true lane compares to -1):
      // the two add chains overlap, and integer counts sum exactly.
      Vec4i even = {0, 0, 0, 0};
      Vec4i odd = {0, 0, 0, 0};
      for (const float* row = thr_t_.data(); row != rows_end; row += 16) {
        Vec4f thr[4];
        std::memcpy(thr, row, sizeof thr);
        even -= thr[0] <= v;
        odd -= thr[1] <= v;
        even -= thr[2] <= v;
        odd -= thr[3] <= v;
      }
      const Vec4f level =
          level_base_f_ + __builtin_convertvector(even + odd, Vec4f) * lsb_f_;
      std::memcpy(levels + i, &level, sizeof level);
    }
    // lane stays 0 after each whole block of 4.
  }
  for (; i < n; ++i) convert_one();
  lane_ = lane;
}

}  // namespace uwb::adc
