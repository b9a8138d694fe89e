#include "dsp/fir_filter.h"

#include <algorithm>

#include "dsp/correlator.h"
#include "dsp/fast_convolve.h"

namespace uwb::dsp {

namespace {

template <typename TX, typename TH>
std::vector<TX> convolve_scatter(const std::vector<TX>& x, const std::vector<TH>& h) {
  if (x.empty() || h.empty()) return {};
  std::vector<TX> y(x.size() + h.size() - 1, TX{});
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < h.size(); ++k) {
      y[i + k] += x[i] * h[k];
    }
  }
  return y;
}

/// Extracts the "same"-mode window in place: shifts the kept samples to the
/// front of the full-convolution buffer and truncates, so no second vector
/// is allocated or copied.
template <typename TY>
std::vector<TY> take_same(std::vector<TY> full, std::size_t x_len, std::size_t h_len) {
  const std::size_t start = (h_len - 1) / 2;
  std::move(full.begin() + static_cast<std::ptrdiff_t>(start),
            full.begin() + static_cast<std::ptrdiff_t>(start + x_len), full.begin());
  full.resize(x_len);
  return full;
}

}  // namespace

RealVec convolve_direct(const RealVec& x, const RealVec& h) { return convolve_scatter(x, h); }

CplxVec convolve_direct(const CplxVec& x, const RealVec& h) { return convolve_scatter(x, h); }

CplxVec convolve_direct(const CplxVec& x, const CplxVec& h) { return convolve_scatter(x, h); }

RealVec convolve(const RealVec& x, const RealVec& h) {
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kRealReal)) {
    RealVec out;
    ols_convolve(x, h, out, thread_fft_workspace());
    return out;
  }
  return convolve_direct(x, h);
}

CplxVec convolve(const CplxVec& x, const RealVec& h) {
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kCplxReal)) {
    CplxVec out;
    ols_convolve(x, h, out, thread_fft_workspace());
    return out;
  }
  return convolve_direct(x, h);
}

namespace {

/// Outputs [j_begin, j_end) of the direct "same"-mode kernel over reversed
/// taps \p r, into y[0, j_end - j_begin). Gather form: the scatter full
/// convolution adds x[i]*h[k] in ascending-i order, which for a fixed
/// output is descending-k -- i.e. ascending over the reversed kernel.
/// Accumulating that way keeps every output bit-identical to the scatter
/// form while the interior runs contiguous-stride through
/// dot_bank's vectorized lag blocks. Each output is its own dot product, so
/// it comes out the same whatever range it is computed in.
template <typename T>
void convolve_same_range_impl(const T* x, std::size_t x_len, const T* r, std::size_t h_len,
                              std::size_t j_begin, std::size_t j_end, T* y) {
  const std::size_t start = (h_len - 1) / 2;
  const std::size_t lead = h_len - 1 - start;
  const auto n = static_cast<std::ptrdiff_t>(x_len);
  const auto edge_out = [&](std::size_t j) {
    const std::ptrdiff_t off =
        static_cast<std::ptrdiff_t>(j + start) - static_cast<std::ptrdiff_t>(h_len - 1);
    const std::size_t m_lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
    const std::ptrdiff_t m_hi = std::min(static_cast<std::ptrdiff_t>(h_len), n - off);
    T acc{};
    for (std::size_t m = m_lo; static_cast<std::ptrdiff_t>(m) < m_hi; ++m) {
      acc += x[off + static_cast<std::ptrdiff_t>(m)] * r[m];
    }
    y[j - j_begin] = acc;
  };

  // Interior outputs [lead, x_len - start) see the whole kernel; the rest
  // sum only the taps that overlap the signal.
  std::size_t mid_lo = j_end;
  std::size_t mid_hi = j_end;
  if (x_len >= h_len) {
    mid_lo = std::clamp(lead, j_begin, j_end);
    mid_hi = std::clamp(x_len - start, mid_lo, j_end);
  }
  for (std::size_t j = j_begin; j < mid_lo; ++j) edge_out(j);
  if (mid_hi > mid_lo) {
    dot_bank(x + (mid_lo - lead), mid_hi - mid_lo, r, h_len, y + (mid_lo - j_begin));
  }
  for (std::size_t j = mid_hi; j < j_end; ++j) edge_out(j);
}

}  // namespace

void convolve_same_range(const float* x, std::size_t x_len, const float* r,
                         std::size_t h_len, std::size_t j_begin, std::size_t j_end, float* y) {
  if (h_len == 0 || j_begin >= j_end) return;
  convolve_same_range_impl(x, x_len, r, h_len, j_begin, j_end, y);
}

void convolve_same_inplace(double* x, std::size_t x_len, const RealVec& h) {
  const std::size_t h_len = h.size();
  if (x_len == 0 || h_len == 0) return;
  // Output j reads x[j - lead .. j + start]. A staging window carries the
  // original samples of the current block plus its h_len - 1 neighbours
  // (zeros past either end) while the outputs overwrite x behind it.
  const std::size_t start = (h_len - 1) / 2;
  constexpr std::size_t kBlock = 1024;
  constexpr std::size_t kMaxStackTaps = 256;
  double stack_taps[kMaxStackTaps];
  double stack_stage[kBlock + kMaxStackTaps];
  std::vector<double> heap;
  double* r = stack_taps;
  double* stage = stack_stage;
  if (h_len > kMaxStackTaps) {
    heap.resize(h_len + kBlock + h_len);
    r = heap.data();
    stage = heap.data() + h_len;
  }
  for (std::size_t m = 0; m < h_len; ++m) r[m] = h[h_len - 1 - m];
  const std::size_t lead = h_len - 1 - start;
  std::fill(stage, stage + lead, 0.0);
  for (std::size_t k = 0; k < start; ++k) stage[lead + k] = k < x_len ? x[k] : 0.0;
  for (std::size_t j0 = 0; j0 < x_len; j0 += kBlock) {
    const std::size_t count = std::min(kBlock, x_len - j0);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t k = j0 + start + t;
      stage[h_len - 1 + t] = k < x_len ? x[k] : 0.0;
    }
    // Zero-padded taps add signed zeros to an accumulator that is never
    // -0, so edge outputs match the direct kernel's trimmed sums exactly.
    dot_bank(stage, count, r, h_len, x + j0);
    std::copy(stage + count, stage + count + h_len - 1, stage);
  }
}

CplxVec convolve_same(const CplxVec& x, const RealVec& h) {
  if (x.empty() || h.empty()) return {};
  return take_same(convolve(x, h), x.size(), h.size());
}

}  // namespace uwb::dsp
