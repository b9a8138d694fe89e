#include "adc/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace uwb::adc {

SampleAndHold::SampleAndHold(const SamplingParams& params) : params_(params) {
  detail::require(params.adc_rate_hz > 0.0, "SampleAndHold: ADC rate must be positive");
  detail::require(params.aperture_jitter_rms_s >= 0.0,
                  "SampleAndHold: jitter must be non-negative");
}

std::size_t SampleAndHold::sample_iq_to(const double* x_i, const double* x_q,
                                        std::size_t x_len, double fs_in, Rng& rng,
                                        double* out_i, double* out_q) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const std::size_t n_out = output_size(x_len, fs_in);
  std::fill(out_i, out_i + n_out, 0.0);
  std::fill(out_q, out_q + n_out, 0.0);
  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) / params_.adc_rate_hz + params_.phase_offset_s;
    if (params_.aperture_jitter_rms_s > 0.0) {
      t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    }
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len) break;
    const double frac = pos - static_cast<double>(i0);
    out_i[k] = x_i[i0] * (1.0 - frac) + x_i[i0 + 1] * frac;
    out_q[k] = x_q[i0] * (1.0 - frac) + x_q[i0 + 1] * frac;
  }
  return n_out;
}

std::size_t SampleAndHold::output_size(std::size_t x_len, double fs_in) const noexcept {
  const double ratio = fs_in / params_.adc_rate_hz;
  return static_cast<std::size_t>(std::floor(static_cast<double>(x_len) / ratio));
}

std::optional<SampleAndHold::LanePlan> SampleAndHold::lane_plan(
    double fs_in, const RealVec& lane_skews_s) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const std::size_t num_lanes = lane_skews_s.size();
  if (params_.aperture_jitter_rms_s > 0.0 || num_lanes == 0 || num_lanes > 64 ||
      ratio != std::floor(ratio) || ratio >= 1e9) {
    return std::nullopt;
  }
  // Integer oversampling ratio (the gen-1 chip: 4 GS/s analog over a
  // 2 GS/s converter): sampling instants advance by exactly `stride`
  // analog samples, so each lane's interpolation fraction is a constant
  // frac((phase + skew) * fs) and the whole resample collapses to a
  // strided lerp -- no per-sample floor or double math.
  LanePlan plan;
  plan.num_lanes = num_lanes;
  plan.stride = static_cast<std::size_t>(ratio);
  for (std::size_t l = 0; l < num_lanes; ++l) {
    const double c = (params_.phase_offset_s + lane_skews_s[l]) * fs_in;
    const double fl = std::floor(c);
    plan.off[l] = static_cast<std::ptrdiff_t>(fl);
    const auto fr = static_cast<float>(c - fl);
    plan.w0[l] = 1.0f - fr;
    plan.w1[l] = fr;
    plan.min_off = std::min(plan.min_off, plan.off[l]);
    plan.max_off = std::max(plan.max_off, plan.off[l]);
  }
  return plan;
}

std::pair<std::size_t, std::size_t> SampleAndHold::LanePlan::input_span(
    std::size_t k_begin, std::size_t k_end, std::size_t x_len) const noexcept {
  if (k_begin >= k_end) return {0, 0};
  const auto lo = static_cast<std::ptrdiff_t>(k_begin * stride) + min_off;
  const auto hi = static_cast<std::ptrdiff_t>((k_end - 1) * stride) + max_off + 2;
  const std::size_t first = lo < 0 ? 0 : std::min(static_cast<std::size_t>(lo), x_len);
  const std::size_t last = hi < 0 ? 0 : std::min(static_cast<std::size_t>(hi), x_len);
  return {first, std::max(first, last)};
}

void SampleAndHold::LanePlan::sample_to(const float* x_first, std::size_t x_len,
                                        std::size_t k_begin, std::size_t k_end,
                                        float* out) const noexcept {
  const std::size_t first = input_span(k_begin, k_end, x_len).first;
  // Checked head/tail around an uncheckable core: k in [k_lo, k_hi) has
  // 0 <= k*stride + off[l] and k*stride + off[l] + 1 < x_len for every lane.
  std::size_t k_lo =
      min_off < 0 ? (static_cast<std::size_t>(-min_off) + stride - 1) / stride : 0;
  std::size_t k_hi = 0;
  if (static_cast<std::ptrdiff_t>(x_len) >= max_off + 2) {
    k_hi = (x_len - 1 - static_cast<std::size_t>(max_off + 1)) / stride + 1;
  }
  k_lo = std::clamp(k_lo, k_begin, k_end);
  k_hi = std::clamp(k_hi, k_lo, k_end);
  const auto checked = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t l = k % num_lanes;
      const std::ptrdiff_t i0 = static_cast<std::ptrdiff_t>(k * stride) + off[l];
      float v = 0.0f;  // an instant outside the input samples nothing
      if (i0 >= 0 && static_cast<std::size_t>(i0) + 1 < x_len) {
        const float* xs = x_first + (static_cast<std::size_t>(i0) - first);
        v = xs[0] * w0[l] + xs[1] * w1[l];
      }
      out[k - k_begin] = v;
    }
  };
  checked(k_begin, k_lo);
  std::size_t lane = k_lo % num_lanes;
  for (std::size_t k = k_lo; k < k_hi; ++k) {
    const auto i0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(k * stride) + off[lane]);
    const float* xs = x_first + (i0 - first);
    out[k - k_begin] = xs[0] * w0[lane] + xs[1] * w1[lane];
    lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
  }
  checked(k_hi, k_end);
}

std::size_t SampleAndHold::sample_interleaved_to(const float* x, std::size_t x_len,
                                                 double fs_in, const RealVec& lane_skews_s,
                                                 Rng& rng, float* out) const {
  const std::size_t n_out = output_size(x_len, fs_in);
  if (const std::optional<LanePlan> plan = lane_plan(fs_in, lane_skews_s)) {
    plan->sample_to(x, x_len, 0, n_out, out);
    return n_out;
  }
  std::fill(out, out + n_out, 0.0f);
  const std::size_t num_lanes = lane_skews_s.size();
  const bool jitter_free = params_.aperture_jitter_rms_s <= 0.0;
  const double inv_rate = 1.0 / params_.adc_rate_hz;

  if (jitter_free && num_lanes > 0) {
    std::size_t lane = 0;
    for (std::size_t k = 0; k < n_out; ++k) {
      const double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s +
                         lane_skews_s[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
      const double pos = t_s * fs_in;
      if (pos < 0.0) continue;
      const auto i0 = static_cast<std::size_t>(pos);
      if (i0 + 1 >= x_len) break;
      const auto frac = static_cast<float>(pos - static_cast<double>(i0));
      out[k] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
    }
    return n_out;
  }

  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s;
    if (!jitter_free) {
      t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    }
    if (num_lanes > 0) {
      t_s += lane_skews_s[k % num_lanes];
    }
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len) break;
    const auto frac = static_cast<float>(pos - static_cast<double>(i0));
    out[k] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
  }
  return n_out;
}

}  // namespace uwb::adc
