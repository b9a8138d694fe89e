#include "dsp/correlator.h"

#include <algorithm>
#include <cmath>

#include "dsp/fast_convolve.h"

namespace uwb::dsp {

CplxVec correlate(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kCplxCplx)) {
    CplxVec out;
    ols_correlate(x, tmpl, out, thread_fft_workspace());
    return out;
  }
  const std::size_t num_lags = x.size() - tmpl.size() + 1;
  CplxVec out(num_lags);
  for (std::size_t k = 0; k < num_lags; ++k) {
    out[k] = dot_conj(x.data() + k, tmpl.data(), tmpl.size());
  }
  return out;
}

RealVec correlate(const RealVec& x, const RealVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kRealReal)) {
    RealVec out;
    ols_correlate(x, tmpl, out, thread_fft_workspace());
    return out;
  }
  RealVec out(x.size() - tmpl.size() + 1);
  dot_bank(x.data(), out.size(), tmpl.data(), tmpl.size(), out.data());
  return out;
}

std::size_t correlate_to(const double* x, std::size_t x_len, const RealVec& tmpl,
                         double* out) {
  const std::size_t num_lags = x_len - tmpl.size() + 1;
  if (use_fft_convolve(x_len, tmpl.size(), ConvKind::kRealReal)) {
    // Overlap-save wants vector in/out; stage through temporaries (rare:
    // the workspace callers all use short matched-filter templates).
    RealVec xin(x, x + x_len);
    RealVec tmp;
    ols_correlate(xin, tmpl, tmp, thread_fft_workspace());
    std::copy(tmp.begin(), tmp.end(), out);
    return num_lags;
  }
  dot_bank(x, num_lags, tmpl.data(), tmpl.size(), out);
  return num_lags;
}

std::size_t correlate_to(const float* x, std::size_t x_len, const RealVec& tmpl,
                         float* out) {
  const std::size_t num_lags = x_len - tmpl.size() + 1;
  // The float arena only matched-filters short pulse templates; stay on the
  // direct kernel unconditionally (no float overlap-save path exists).
  constexpr std::size_t kMaxStackTaps = 256;
  float stack_taps[kMaxStackTaps] = {};
  std::vector<float> heap_taps;
  float* t = stack_taps;
  if (tmpl.size() > kMaxStackTaps) {
    heap_taps.resize(tmpl.size());
    t = heap_taps.data();
  }
  for (std::size_t m = 0; m < tmpl.size(); ++m) t[m] = static_cast<float>(tmpl[m]);
  dot_bank(x, num_lags, t, tmpl.size(), out);
  return num_lags;
}

namespace {

/// Shared blocked kernel: kBlock lags advance together, taps ascending, one
/// independent accumulator per lag. The same lag count fills the same vector
/// registers with twice the lanes in float, which is the whole point of the
/// gen-1 single-precision arena.
template <typename T, std::size_t kBlock>
void dot_bank_impl(const T* x, std::size_t num_lags, const T* h, std::size_t h_len,
                   T* out) noexcept {
  std::size_t j = 0;
  for (; j + kBlock <= num_lags; j += kBlock) {
    T acc[kBlock] = {};
    const T* xj = x + j;
    for (std::size_t m = 0; m < h_len; ++m) {
      const T hm = h[m];
      for (std::size_t b = 0; b < kBlock; ++b) {
        acc[b] += xj[m + b] * hm;
      }
    }
    for (std::size_t b = 0; b < kBlock; ++b) out[j + b] = acc[b];
  }
  for (; j < num_lags; ++j) {
    T acc{};
    for (std::size_t m = 0; m < h_len; ++m) acc += x[j + m] * h[m];
    out[j] = acc;
  }
}

}  // namespace

void dot_bank(const double* x, std::size_t num_lags, const double* h, std::size_t h_len,
              double* out) noexcept {
  // 32 lags per block: enough independent accumulator vectors to hide the
  // FP-add latency chain (measured >2x over an 8-lag block on SSE2). Each
  // lag still accumulates alone in ascending-tap order, so the block width
  // never affects results.
  dot_bank_impl<double, 32>(x, num_lags, h, h_len, out);
}

void dot_bank(const float* x, std::size_t num_lags, const float* h, std::size_t h_len,
              float* out) noexcept {
  dot_bank_impl<float, 32>(x, num_lags, h, h_len, out);
}

RealVec normalized_correlation(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  double tmpl_energy = 0.0;
  for (const auto& v : tmpl) tmpl_energy += std::norm(v);
  const double tmpl_norm = std::sqrt(tmpl_energy);

  const std::size_t n = tmpl.size();
  const std::size_t num_lags = x.size() - n + 1;
  RealVec out(num_lags);

  // Running window energy for O(1) per-lag normalization.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) win_energy += std::norm(x[i]);
  for (std::size_t k = 0; k < num_lags; ++k) {
    const cplx c = dot_conj(x.data() + k, tmpl.data(), n);
    const double denom = std::sqrt(std::max(win_energy, 1e-300)) * tmpl_norm;
    out[k] = std::abs(c) / denom;
    if (k + 1 < num_lags) {
      win_energy += std::norm(x[k + n]) - std::norm(x[k]);
      win_energy = std::max(win_energy, 0.0);
    }
  }
  return out;
}

RealVec normalized_correlation(const RealVec& x, const RealVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  double tmpl_energy = 0.0;
  for (double v : tmpl) tmpl_energy += v * v;
  const double tmpl_norm = std::sqrt(tmpl_energy);

  const std::size_t n = tmpl.size();
  const std::size_t num_lags = x.size() - n + 1;
  RealVec out(num_lags);

  double win_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) win_energy += x[i] * x[i];
  for (std::size_t k = 0; k < num_lags; ++k) {
    const double c = dot(x.data() + k, tmpl.data(), n);
    const double denom = std::sqrt(std::max(win_energy, 1e-300)) * tmpl_norm;
    out[k] = c / denom;
    if (k + 1 < num_lags) {
      win_energy += x[k + n] * x[k + n] - x[k] * x[k];
      win_energy = std::max(win_energy, 0.0);
    }
  }
  return out;
}

std::size_t argmax_abs(const CplxVec& x) {
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double m = std::norm(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

std::size_t argmax_abs(const RealVec& x) {
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double m = std::abs(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

cplx dot_conj(const cplx* x, const cplx* tmpl, std::size_t n) noexcept {
  cplx acc{};
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * std::conj(tmpl[i]);
  return acc;
}

double dot(const double* x, const double* tmpl, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * tmpl[i];
  return acc;
}

}  // namespace uwb::dsp
