#include "dsp/fast_convolve.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/math_utils.h"
#include "dsp/fft.h"

namespace uwb::dsp {

namespace {

inline cplx to_cplx(double v) noexcept { return {v, 0.0}; }
inline cplx to_cplx(const cplx& v) noexcept { return v; }

/// a[k] *= b[k] over n bins, written out as std::complex's operator*
/// expands it (same products, same order) minus the NaN-recovery call that
/// only matters for infinite operands -- bit-identical on finite spectra,
/// and a loop the compiler can vectorize.
void multiply_spectra(cplx* a, const cplx* b, std::size_t n) noexcept {
  double* ad = reinterpret_cast<double*>(a);
  const double* bd = reinterpret_cast<const double*>(b);
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = ad[2 * k];
    const double ai = ad[2 * k + 1];
    const double br = bd[2 * k];
    const double bi = bd[2 * k + 1];
    ad[2 * k] = ar * br - ai * bi;
    ad[2 * k + 1] = ar * bi + ai * br;
  }
}

/// Picks the overlap-save FFT size for a kernel of \p h_len taps and a
/// result of \p out_len samples: a single full-size transform when the
/// whole job fits in a modest block, otherwise a block about 4x the kernel
/// so ~3/4 of every transform produces valid output.
std::size_t pick_fft_size(std::size_t h_len, std::size_t out_len) {
  const std::size_t full = next_pow2(out_len);
  const std::size_t block = std::max<std::size_t>(1024, next_pow2(4 * h_len));
  return std::min(full, block);
}

/// Core overlap-save loop: full linear convolution of \p x with the
/// \p h_len-tap kernel the caller staged into ws.kernel_taps[0..h_len).
/// Valid block outputs are handed to \p store(full_index, value).
template <typename TX, typename StoreFn>
void ols_run(const std::vector<TX>& x, std::size_t h_len, StoreFn&& store,
             FftWorkspace& ws) {
  const std::size_t x_len = x.size();
  const std::size_t out_len = x_len + h_len - 1;
  const std::size_t n = pick_fft_size(h_len, out_len);
  const std::size_t hop = n - h_len + 1;  // valid outputs per block
  const FftPlan& plan = fft_plan(n);

  // Kernel spectrum, unless it already holds these exact taps at this size.
  const cplx* taps = ws.kernel_taps.data();
  if (ws.kernel_n != n || ws.kernel_key.size() != h_len ||
      std::memcmp(ws.kernel_key.data(), taps, h_len * sizeof(cplx)) != 0) {
    ws.kernel_key.assign(taps, taps + h_len);
    ws.kernel_fft.assign(n, cplx{});
    std::copy(taps, taps + h_len, ws.kernel_fft.begin());
    plan.forward(ws.kernel_fft.data());
    ws.kernel_n = n;
  }

  ws.block.resize(n);
  for (std::size_t s = 0; s < out_len; s += hop) {
    // Outputs [s, s+hop) need input indices [s - (h_len-1), s - (h_len-1) + n).
    const std::ptrdiff_t i0 =
        static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h_len - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t i = i0 + static_cast<std::ptrdiff_t>(j);
      ws.block[j] = (i >= 0 && i < static_cast<std::ptrdiff_t>(x_len))
                        ? to_cplx(x[static_cast<std::size_t>(i)])
                        : cplx{};
    }
    plan.forward(ws.block.data());
    multiply_spectra(ws.block.data(), ws.kernel_fft.data(), n);
    plan.inverse(ws.block.data());
    const std::size_t count = std::min(hop, out_len - s);
    for (std::size_t t = 0; t < count; ++t) store(s + t, ws.block[h_len - 1 + t]);
  }
}

/// Real x real overlap-save core on the half-size real transform: same
/// block decomposition as ols_run (pick_fft_size depends only on sizes),
/// but each block pays one forward + one inverse RfftPlan execution --
/// roughly half the complex-transform work. The caller staged the kernel
/// taps into ws.rblock[0..h_len).
template <typename StoreFn>
void ols_run_real(const RealVec& x, std::size_t h_len, StoreFn&& store,
                  FftWorkspace& ws) {
  const std::size_t x_len = x.size();
  const std::size_t out_len = x_len + h_len - 1;
  const std::size_t n = std::max<std::size_t>(2, pick_fft_size(h_len, out_len));
  const std::size_t hop = n - h_len + 1;  // valid outputs per block
  const RfftPlan& plan = rfft_plan(n);
  const std::size_t bins = plan.bins();

  // Kernel half-spectrum (zero stale bytes past the staged taps).
  ws.rblock.resize(n);
  std::fill(ws.rblock.begin() + static_cast<std::ptrdiff_t>(h_len),
            ws.rblock.end(), 0.0);
  ws.kernel_rfft.resize(bins);
  plan.forward(ws.rblock.data(), ws.kernel_rfft.data());
  ws.rspec.resize(bins);

  for (std::size_t s = 0; s < out_len; s += hop) {
    // Outputs [s, s+hop) need input indices [s - (h_len-1), s - (h_len-1) + n):
    // copy the in-range span, zero-fill the edges (no per-sample branches).
    const std::ptrdiff_t i0 =
        static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h_len - 1);
    const std::ptrdiff_t lo =
        std::clamp<std::ptrdiff_t>(-i0, 0, static_cast<std::ptrdiff_t>(n));
    const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(x_len) - i0, lo, static_cast<std::ptrdiff_t>(n));
    std::fill(ws.rblock.begin(), ws.rblock.begin() + lo, 0.0);
    std::copy(x.begin() + (i0 + lo), x.begin() + (i0 + hi), ws.rblock.begin() + lo);
    std::fill(ws.rblock.begin() + hi, ws.rblock.end(), 0.0);

    plan.forward(ws.rblock.data(), ws.rspec.data());
    multiply_spectra(ws.rspec.data(), ws.kernel_rfft.data(), bins);
    plan.inverse(ws.rspec.data(), ws.rblock.data());
    const std::size_t count = std::min(hop, out_len - s);
    for (std::size_t t = 0; t < count; ++t) store(s + t, ws.rblock[h_len - 1 + t]);
  }
}

/// Shared prologue for the convolve overloads: stage the kernel, size the
/// output, run the block loop writing out[i] = project(block value).
template <typename TX, typename TH, typename TY>
void ols_convolve_impl(const std::vector<TX>& x, const std::vector<TH>& h,
                       std::vector<TY>& out, FftWorkspace& ws) {
  if (x.empty() || h.empty()) {
    out.clear();
    return;
  }
  out.resize(x.size() + h.size() - 1);
  ws.kernel_taps.resize(std::max(ws.kernel_taps.size(), h.size()));
  for (std::size_t i = 0; i < h.size(); ++i) ws.kernel_taps[i] = to_cplx(h[i]);
  ols_run(x, h.size(), [&](std::size_t idx, const cplx& v) {
    if constexpr (std::is_same_v<TY, double>) {
      out[idx] = v.real();
    } else {
      out[idx] = v;
    }
  }, ws);
}

/// Shared prologue for the correlate overloads: correlate(x, t)[k] equals
/// conv(x, reverse(conj(t)))[k + |t| - 1] over the valid lags.
template <typename T>
void ols_correlate_impl(const std::vector<T>& x, const std::vector<T>& tmpl,
                        std::vector<T>& out, FftWorkspace& ws) {
  const std::size_t m = tmpl.size();
  if (m == 0 || x.size() < m) {
    out.clear();
    return;
  }
  const std::size_t num_lags = x.size() - m + 1;
  out.resize(num_lags);
  ws.kernel_taps.resize(std::max(ws.kernel_taps.size(), m));
  for (std::size_t i = 0; i < m; ++i) ws.kernel_taps[i] = std::conj(to_cplx(tmpl[m - 1 - i]));
  ols_run(x, m, [&](std::size_t idx, const cplx& v) {
    if (idx < m - 1) return;  // partial-overlap prefix of the full convolution
    const std::size_t lag = idx - (m - 1);
    if (lag >= num_lags) return;
    if constexpr (std::is_same_v<T, double>) {
      out[lag] = v.real();
    } else {
      out[lag] = v;
    }
  }, ws);
}

}  // namespace

FftWorkspace& thread_fft_workspace() {
  thread_local FftWorkspace ws;
  return ws;
}

bool use_fft_convolve(std::size_t x_len, std::size_t h_len, ConvKind kind) noexcept {
  if (x_len == 0 || h_len == 0) return false;
  std::size_t min_kernel = kFftMinKernelCplxCplx;
  switch (kind) {
    case ConvKind::kRealReal: min_kernel = kFftMinKernelRealReal; break;
    case ConvKind::kCplxReal: min_kernel = kFftMinKernelCplxReal; break;
    case ConvKind::kCplxCplx: min_kernel = kFftMinKernelCplxCplx; break;
  }
  const std::size_t kernel = std::min(x_len, h_len);
  if (kernel < min_kernel) return false;
  return x_len * h_len >= kFftMinProduct;
}

void ols_convolve(const RealVec& x, const RealVec& h, RealVec& out, FftWorkspace& ws) {
  if (x.empty() || h.empty()) {
    out.clear();
    return;
  }
  out.resize(x.size() + h.size() - 1);
  ws.rblock.resize(std::max(ws.rblock.size(), h.size()));
  std::copy(h.begin(), h.end(), ws.rblock.begin());
  ols_run_real(x, h.size(), [&](std::size_t idx, double v) { out[idx] = v; }, ws);
}

void ols_convolve(const CplxVec& x, const RealVec& h, CplxVec& out, FftWorkspace& ws) {
  ols_convolve_impl(x, h, out, ws);
}

void ols_correlate(const CplxVec& x, const CplxVec& tmpl, CplxVec& out, FftWorkspace& ws) {
  ols_correlate_impl(x, tmpl, out, ws);
}

}  // namespace uwb::dsp
