#pragma once
/// \file fast_convolve.h
/// \brief Overlap-save FFT convolution behind the library's convolve /
///        correlate entry points, the size-only dispatch rule that picks it,
///        and reusable per-thread scratch workspaces.
///
/// Dispatch contract: dsp::convolve, the complex dsp::convolve_same and
/// dsp::correlate route through use_fft_convolve(), a pure function of the
/// sizes and the sample types. Below the crossover the direct O(N*M)
/// kernels run (they win on short kernels, and convolve_direct /
/// correlate_direct expose them by name); above it the work goes through
/// overlap-save block convolution on cached FftPlans. The crossover
/// constants were measured with bench_dsp_micro (see docs/performance.md).
///
/// Determinism: the output is a pure function of the inputs -- the kernel
/// choice and the block decomposition depend only on sizes, and the scratch
/// workspace is thread-local, so parallel sweep workers never share state.
/// The FFT and direct kernels agree to ~1e-12 (their accumulation orders
/// differ); which one a call runs never changes between calls.

#include <cstddef>

#include "common/types.h"

namespace uwb::dsp {

/// Reusable scratch for FFT convolution. Buffers grow to the largest size
/// seen and are then reused allocation-free; a sweep worker thread keeps one
/// workspace for its whole trial stream (see thread_fft_workspace()).
struct FftWorkspace {
  CplxVec kernel_taps;  ///< a complex job's kernel taps, staged by the caller
  // kernel_fft holds the spectrum of kernel_key at block size kernel_n: a
  // job whose staged taps are bit-equal to kernel_key at the same block
  // size reuses it (a sync search and the channel estimate correlate one
  // preamble template trial after trial). +0.0 and -0.0 taps differ.
  CplxVec kernel_key;         ///< taps kernel_fft was computed from
  std::size_t kernel_n = 0;   ///< block size of kernel_fft (0: none yet)
  CplxVec kernel_fft;         ///< H = FFT(kernel_key), kernel_n bins
  CplxVec block;              ///< per-block staging / transform buffer
  // Real x real jobs run on the half-size real transform (dsp::RfftPlan)
  // instead: real staging buffer plus half-spectrum kernel/work buffers.
  RealVec rblock;       ///< real per-block staging / kernel staging buffer
  CplxVec kernel_rfft;  ///< H = rfft(kernel), n/2 + 1 bins
  CplxVec rspec;        ///< per-block half-spectrum work buffer
};

/// The per-thread workspace used by the auto-dispatching entry points.
/// Thread-local: engine workers each reuse their own buffers trial after
/// trial with zero reallocation once warmed up.
FftWorkspace& thread_fft_workspace();

/// Sample-type combination of a convolution, used by the dispatch rule:
/// a direct real MAC costs ~2 flops, complex*real ~4, complex*complex ~8,
/// while the FFT path always pays complex transforms -- so the crossover
/// kernel length shrinks as the direct arithmetic gets heavier.
enum class ConvKind { kRealReal, kCplxReal, kCplxCplx };

/// Measured dispatch crossovers (bench_dsp_micro "Convolve*"/"Correlate*"
/// fixtures, 16k-sample signal; see docs/performance.md): the FFT path wins
/// once the kernel reaches the per-kind tap count below AND the direct-cost
/// proxy x_len * h_len clears kFftMinProduct. Real x real runs on the
/// half-size real transform (RfftPlan), which moved its crossover down
/// from 128: direct still wins at 64 taps, rfft wins from 96 up.
inline constexpr std::size_t kFftMinKernelRealReal = 96;
inline constexpr std::size_t kFftMinKernelCplxReal = 64;
inline constexpr std::size_t kFftMinKernelCplxCplx = 32;
inline constexpr std::size_t kFftMinProduct = 1u << 15;

/// True when (x_len, h_len) takes the overlap-save path: a pure function
/// of the sizes and the sample types.
[[nodiscard]] bool use_fft_convolve(std::size_t x_len, std::size_t h_len,
                                    ConvKind kind) noexcept;

/// The direct O(|x| * |h|) kernels the dispatch runs below the crossover,
/// by name: the exact reference the overlap-save path is tested against.
/// convolve_direct is the scatter full convolution (result length x+h-1);
/// correlate_direct computes each valid lag as its own dot product (same
/// definition as dsp::correlate). Empty inputs give an empty result.
[[nodiscard]] RealVec convolve_direct(const RealVec& x, const RealVec& h);
[[nodiscard]] CplxVec convolve_direct(const CplxVec& x, const RealVec& h);
[[nodiscard]] CplxVec convolve_direct(const CplxVec& x, const CplxVec& h);
[[nodiscard]] CplxVec correlate_direct(const CplxVec& x, const CplxVec& tmpl);

/// Overlap-save full linear convolution, result length x+h-1, written into
/// \p out (resized; reuses capacity). No allocation once \p ws is warm.
void ols_convolve(const RealVec& x, const RealVec& h, RealVec& out, FftWorkspace& ws);
void ols_convolve(const CplxVec& x, const RealVec& h, CplxVec& out, FftWorkspace& ws);

/// Overlap-save sliding correlation (same definition as dsp::correlate:
/// out[k] = sum_i x[k+i] * conj(tmpl[i]), valid lags only), written into
/// \p out. Implemented as convolution with the conjugate-reversed template.
void ols_correlate(const CplxVec& x, const CplxVec& tmpl, CplxVec& out, FftWorkspace& ws);

}  // namespace uwb::dsp
