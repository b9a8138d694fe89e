#include "dsp/correlator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "dsp/fast_convolve.h"

namespace uwb::dsp {

CplxVec correlate_direct(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  const std::size_t num_lags = x.size() - tmpl.size() + 1;
  CplxVec out(num_lags);
  for (std::size_t k = 0; k < num_lags; ++k) {
    out[k] = dot_conj(x.data() + k, tmpl.data(), tmpl.size());
  }
  return out;
}

CplxVec correlate(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kCplxCplx)) {
    CplxVec out;
    ols_correlate(x, tmpl, out, thread_fft_workspace());
    return out;
  }
  return correlate_direct(x, tmpl);
}

namespace {

/// kBlock lags advancing together, taps ascending, one independent
/// accumulator per lag, added onto \p acc. Every lag the bank computes goes
/// through this one body, so a lag is the same expression -- fused or not,
/// as the target's codegen chooses -- whatever its position in the bank.
template <typename T, std::size_t kBlock>
[[gnu::always_inline]] inline void dot_block(const T* x, const T* h, std::size_t h_len,
                                             T* acc) noexcept {
  for (std::size_t m = 0; m < h_len; ++m) {
    const T hm = h[m];
    for (std::size_t b = 0; b < kBlock; ++b) acc[b] += x[m + b] * hm;
  }
}

/// Shared blocked kernel. The same lag count fills the same vector
/// registers with twice the lanes in float, which is the whole point of the
/// gen-1 single-precision arena. Always inlined, so each target clone of
/// dot_bank below compiles its own copy at its own vector width.
template <typename T, std::size_t kBlock>
[[gnu::always_inline]] inline void dot_bank_impl(const T* x, std::size_t num_lags, const T* h,
                                                 std::size_t h_len, T* out) noexcept {
  std::size_t j = 0;
  for (; j + kBlock <= num_lags; j += kBlock) {
    T acc[kBlock] = {};
    dot_block<T, kBlock>(x + j, h, h_len, acc);
    for (std::size_t b = 0; b < kBlock; ++b) out[j + b] = acc[b];
  }
  if (j == num_lags) return;
  // The last partial block runs the same body on a zero-padded copy of its
  // input, kTaps taps at a time so the copy stays on the stack. Each lag
  // still accumulates alone in ascending-tap order; the padded lags are
  // dropped.
  constexpr std::size_t kTaps = 64;
  const std::size_t lags = num_lags - j;
  const std::size_t avail = lags + h_len - 1;  // input the real lags read
  T acc[kBlock] = {};
  T pad[kTaps + kBlock - 1];
  for (std::size_t m0 = 0; m0 < h_len; m0 += kTaps) {
    const std::size_t taps = std::min(kTaps, h_len - m0);
    const std::size_t width = taps + kBlock - 1;
    const std::size_t copied = std::min(width, avail - m0);
    std::copy(x + j + m0, x + j + m0 + copied, pad);
    std::fill(pad + copied, pad + width, T{});
    dot_block<T, kBlock>(pad, h + m0, taps, acc);
  }
  std::copy(acc, acc + lags, out + j);
}

}  // namespace

// Portable x86-64 builds give both banks and shifted_sum a
// runtime-dispatched AVX2 clone next to the default. The clone enables AVX2
// only, not FMA: every output keeps its separately rounded multiply then add
// in ascending order, so either clone returns the same bits on any x86-64
// host. Builds that already target AVX2 (UWB_NATIVE_ARCH on such a host)
// need no clone, and TSan builds cannot have one: the clone's ifunc resolver
// runs at load time, before the TSan runtime it is instrumented against has
// started.
#if defined(__x86_64__) && !defined(__AVX2__) && !defined(__SANITIZE_THREAD__)
#define UWB_DOT_BANK_CLONES [[gnu::target_clones("avx2", "default")]]
#else
#define UWB_DOT_BANK_CLONES
#endif

UWB_DOT_BANK_CLONES void dot_bank(const double* x, std::size_t num_lags, const double* h,
                                  std::size_t h_len, double* out) noexcept {
  // 32 lags per block: enough independent accumulator vectors to hide the
  // FP-add latency chain (measured >2x over an 8-lag block on SSE2). Each
  // lag still accumulates alone in ascending-tap order through the one
  // block body, so neither the block width nor a lag's position in the
  // bank affects results.
  dot_bank_impl<double, 32>(x, num_lags, h, h_len, out);
}

UWB_DOT_BANK_CLONES void dot_bank(const float* x, std::size_t num_lags, const float* h,
                                  std::size_t h_len, float* out) noexcept {
  dot_bank_impl<float, 32>(x, num_lags, h, h_len, out);
}

namespace detail {

/// Outputs per shifted_sum block: eight 4-double accumulator vectors.
/// Measured on the gen-2 capture's sizes (506 terms 40 samples apart),
/// 16-wide blocks ran ~25% slower on a 1297-sample kernel and no faster
/// on the 97-sample AWGN one (docs/performance.md).
constexpr std::size_t kShiftBlock = 32;

/// shifted_sum over a kernel stored at kpad + kShiftBlock - 1 with
/// kShiftBlock - 1 zeros on each side, so every block reads a full
/// kShiftBlock-wide window of every term that reaches it through one
/// fixed body. The accumulators are GCC vector-extension values: left to
/// itself the vectorizer picks the term loop, gathering across terms,
/// where the block is the vector dimension. Lane arithmetic is still one
/// multiply then one add per term and output. \p first may be negative
/// (the kernel's leading zeros were trimmed off).
UWB_DOT_BANK_CLONES void shifted_sum_padded(const double* w, const std::size_t* offsets,
                                            std::size_t terms, const double* kpad,
                                            std::size_t k_len, std::ptrdiff_t first,
                                            std::size_t count, double* out) noexcept {
  using Vec = double __attribute__((vector_size(4 * sizeof(double))));
  constexpr std::size_t kB = kShiftBlock;
  constexpr std::size_t kVecs = kB / 4;
  const auto len = static_cast<std::ptrdiff_t>(k_len);
  const auto at = [&](std::size_t m) { return static_cast<std::ptrdiff_t>(offsets[m]); };
  // Terms [lo, hi) reach block [n0, n0 + kB): o_m + k_len > n0 and o_m < n0 + kB.
  std::size_t lo = static_cast<std::size_t>(
      std::partition_point(offsets, offsets + terms,
                           [&](std::size_t o) {
                             return static_cast<std::ptrdiff_t>(o) + len <= first;
                           }) -
      offsets);
  std::size_t hi = lo;
  for (std::size_t j = 0; j < count; j += kB) {
    const std::ptrdiff_t n0 = first + static_cast<std::ptrdiff_t>(j);
    while (lo < terms && at(lo) + len <= n0) ++lo;
    while (hi < terms && at(hi) < n0 + static_cast<std::ptrdiff_t>(kB)) ++hi;
    Vec acc[kVecs] = {};
    for (std::size_t m = lo; m < hi; ++m) {
      const double wm = w[m];
      const double* src = kpad + (n0 - at(m) + static_cast<std::ptrdiff_t>(kB - 1));
      for (std::size_t v = 0; v < kVecs; ++v) {
        Vec x;
        std::memcpy(&x, src + 4 * v, sizeof x);
        acc[v] += wm * x;
      }
    }
    if (count - j >= kB) {
      std::memcpy(out + j, acc, sizeof acc);
    } else {
      double tail[kB];
      std::memcpy(tail, acc, sizeof acc);
      std::copy(tail, tail + (count - j), out + j);
    }
  }
}

}  // namespace detail

void shifted_sum(const double* w, const std::size_t* offsets, std::size_t terms, const double* k,
                 std::size_t k_len, std::size_t first, std::size_t count, double* out) {
  constexpr std::size_t kB = detail::kShiftBlock;
  // A +/-0 kernel sample at either end adds +/-0 to every output it
  // reaches: trim them, and an all-zero kernel leaves every output +0.
  std::size_t lead = 0;
  while (lead < k_len && k[lead] == 0.0) ++lead;
  while (k_len > lead && k[k_len - 1] == 0.0) --k_len;
  if (lead == k_len) {
    std::fill(out, out + count, 0.0);
    return;
  }
  const std::size_t len = k_len - lead;
  thread_local std::vector<double> kpad;
  kpad.assign(len + 2 * (kB - 1), 0.0);
  std::copy(k + lead, k + k_len, kpad.begin() + static_cast<std::ptrdiff_t>(kB - 1));
  detail::shifted_sum_padded(w, offsets, terms, kpad.data(), len,
                             static_cast<std::ptrdiff_t>(first) -
                                 static_cast<std::ptrdiff_t>(lead),
                             count, out);
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

cplx dot_conj(const cplx* x, const cplx* tmpl, std::size_t n) noexcept {
  cplx acc{};
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * std::conj(tmpl[i]);
  return acc;
}

}  // namespace uwb::dsp
