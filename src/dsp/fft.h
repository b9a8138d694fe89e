#pragma once
/// \file fft.h
/// \brief Iterative radix-2 FFT used by the spectral monitor, PSD estimation
///        and fast convolution. Self-contained (no external FFT library).
///
/// Two layers:
///   - FftPlan: precomputed twiddle factors + bit-reversal table for one
///     transform size, executing in place into caller-owned buffers so
///     repeated transforms of the same size allocate nothing. Plans are
///     immutable after construction and safe to share across threads.
///   - fft_plan(n): a process-wide, thread-safe, per-size plan cache. The
///     hot path (overlap-save convolution, per-packet spectral monitoring)
///     pays the twiddle/bit-reversal setup exactly once per size.
///
/// fft_inplace() runs a vector through its size's cached plan.

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace uwb::dsp {

/// A precomputed radix-2 FFT of one fixed power-of-two size.
///
/// The plan owns its twiddle-factor and bit-reversal tables; execute calls
/// are const, allocation-free, and re-entrant, so a single cached plan can
/// serve every worker thread of a parallel sweep concurrently.
class FftPlan {
 public:
  /// Builds tables for length \p n (power of two, >= 1).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT of \p x[0..size()). No allocation.
  void forward(cplx* x) const noexcept;

  /// In-place inverse DFT of \p x[0..size()), including the 1/N scale.
  void inverse(cplx* x) const noexcept;

 private:
  void run(cplx* x, bool inverse) const noexcept;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> rev_;  ///< bit-reversal permutation
  CplxVec twiddle_;                 ///< forward twiddles, stages concatenated
  CplxVec twiddle_inv_;             ///< their exact conjugates, for inverse()
};

/// The process-wide plan cache: returns the shared immutable plan for
/// length \p n (power of two), constructing it on first use. Thread-safe;
/// the returned reference stays valid for the lifetime of the process.
const FftPlan& fft_plan(std::size_t n);

/// A real-input FFT of one fixed even power-of-two size \p n, built on a
/// half-size complex plan via the pack-two-reals identity: the n real
/// samples are viewed as n/2 complex samples, transformed once, and the
/// even/odd spectra are disentangled with one extra O(n) pass. One real
/// transform therefore costs roughly half of the equivalent complex one —
/// which is what makes it the right engine for real x real overlap-save
/// convolution (src/dsp/fast_convolve.cpp).
///
/// The spectrum representation is the usual half-spectrum: bins()
/// == n/2 + 1 complex bins X[0..n/2], where X[0] and X[n/2] carry the DC
/// and Nyquist terms (real for real input; the imaginary parts of those
/// two bins are ignored by inverse()). The remaining bins of the full
/// spectrum are implied by conjugate symmetry X[n-k] = conj(X[k]).
///
/// Like FftPlan, execution is const, allocation-free and re-entrant.
class RfftPlan {
 public:
  /// Builds tables for length \p n (power of two, >= 2). \p half must be
  /// the cached plan of size n/2; rfft_plan(n) supplies it.
  RfftPlan(std::size_t n, const FftPlan& half);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Number of spectrum bins: n/2 + 1.
  [[nodiscard]] std::size_t bins() const noexcept { return n_ / 2 + 1; }

  /// Forward real DFT: reads x[0..n), writes spec[0..n/2]. The buffers
  /// may not alias. No allocation.
  void forward(const double* x, cplx* spec) const noexcept;

  /// Inverse real DFT including the 1/n scale: consumes spec[0..n/2]
  /// (destroys the buffer — it is used as scratch for the half-size
  /// transform) and writes x[0..n). The buffers may not alias.
  void inverse(cplx* spec, double* x) const noexcept;

 private:
  std::size_t n_ = 0;
  const FftPlan* half_ = nullptr;  ///< cached plan of size n/2
  CplxVec w_;                      ///< W_n^k = exp(-2*pi*i*k/n), k in [0, n/4]
};

/// The process-wide real-plan cache, sharing hit/miss accounting with
/// fft_plan(). \p n must be a power of two >= 2.
const RfftPlan& rfft_plan(std::size_t n);

/// Cumulative hit/miss accounting of the fft_plan cache since process
/// start. A hit serves an existing plan; a miss pays the twiddle and
/// bit-reversal table construction. The telemetry layer (src/obs/) reports
/// per-run deltas of these totals.
struct FftPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
[[nodiscard]] FftPlanCacheStats fft_plan_cache_stats();

/// In-place forward FFT. \p x must have power-of-two length.
void fft_inplace(CplxVec& x);

}  // namespace uwb::dsp
