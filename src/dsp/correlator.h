#pragma once
/// \file correlator.h
/// \brief Sliding correlation / matched filtering -- the workhorse of the
///        paper's digital back end (acquisition, channel estimation, demod).

#include <cstddef>

#include "common/types.h"

namespace uwb::dsp {

/// Cross-correlation of \p x against template \p tmpl at every lag where the
/// template fully overlaps: out[k] = sum_i x[k+i] * conj(tmpl[i]),
/// k in [0, |x| - |tmpl|]. Empty if the template is longer than the signal.
/// Large x*tmpl products dispatch by size to overlap-save FFT correlation
/// (see dsp/fast_convolve.h); short templates stay on correlate_direct.
CplxVec correlate(const CplxVec& x, const CplxVec& tmpl);

/// Bank of sliding dot products: out[j] = sum_m x[j+m] * h[m] for
/// j in [0, num_lags). Blocked over lags with per-lag ascending-tap
/// accumulation, and every lag -- the last partial block's too -- runs
/// through the one fixed 32-lag block body, which auto-vectorizes: a lag's
/// bits equal a single-lag call's whatever its position in the bank, on
/// any build. The hot kernel under the receivers' matched filters and the
/// direct "same"-mode convolutions.
void dot_bank(const double* x, std::size_t num_lags, const double* h, std::size_t h_len,
              double* out) noexcept;

/// Single-precision bank: the same 32-lag blocked kernel, with twice the
/// lanes per vector register in float.
void dot_bank(const float* x, std::size_t num_lags, const float* h, std::size_t h_len,
              float* out) noexcept;

/// Shifted sum of one kernel: out[j] = sum_m w[m] * k[first + j - offsets[m]]
/// for j in [0, count), over the terms m in [0, terms) whose kernel index
/// lands in [0, k_len). \p offsets must be non-decreasing.
///
/// Output-major: each block of outputs accumulates in registers, from +0.0,
/// over the terms that reach it in ascending m, and is stored once. That is
/// the same products summed in the same order as the scatter
/// `out = 0; for m: out[offsets[m] + i - first] += w[m] * k[i]`, and a term
/// outside an output's reach adds w * 0 = +/-0 onto an accumulator that is
/// never -0, so the bits equal the scatter's on any build. Kernel samples
/// that are +/-0 at either end of \p k add nothing and are skipped. The
/// channel's per-slot kernel, the gen-2 capture and the gen-2 dense train
/// are all built by it.
void shifted_sum(const double* w, const std::size_t* offsets, std::size_t terms, const double* k,
                 std::size_t k_len, std::size_t first, std::size_t count, double* out);

/// Normalized correlation magnitude in [0, 1]:
/// |corr| / (||window|| * ||template||), robust to received power.
RealVec normalized_correlation(const CplxVec& x, const CplxVec& tmpl);

/// Index of the maximum-magnitude element; 0 for empty input.
std::size_t argmax_abs(const CplxVec& x);

/// Single-point correlation (dot product with conjugated template).
cplx dot_conj(const cplx* x, const cplx* tmpl, std::size_t n) noexcept;

/// Streaming integrate-and-dump: accumulates blocks of \p length samples and
/// emits one output per block (despreading pulses-per-bit style signals).
template <typename T>
class IntegrateAndDump {
 public:
  explicit IntegrateAndDump(std::size_t length) : length_(length) {}

  /// Pushes one sample; returns true when a dump occurred (result in out).
  bool push(T x, T& out) noexcept {
    acc_ += x;
    if (++count_ == length_) {
      out = acc_;
      acc_ = T{};
      count_ = 0;
      return true;
    }
    return false;
  }

  void reset() noexcept {
    acc_ = T{};
    count_ = 0;
  }

 private:
  std::size_t length_;
  T acc_{};
  std::size_t count_ = 0;
};

}  // namespace uwb::dsp
