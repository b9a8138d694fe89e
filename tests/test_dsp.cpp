// Tests for the DSP substrate: FFT, windows, filter design, FIR,
// correlators, PSD.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/aligned.h"
#include "dsp/correlator.h"
#include "dsp/fast_convolve.h"
#include "dsp/fft.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/power_spectrum.h"
#include "dsp/window.h"

namespace uwb::dsp {
namespace {

// ----------------------------------------------------------------- fft ----

TEST(Fft, DeltaTransformsToFlat) {
  CplxVec x(8, cplx{});
  x[0] = 1.0;
  fft_inplace(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CplxVec x(n);
  const std::size_t k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(1.0, two_pi * static_cast<double>(k0 * i) / n);
  }
  fft_inplace(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(x[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  CplxVec x(256);
  for (auto& v : x) v = rng.cgaussian();
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  CplxVec spec = x;
  fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-9 * time_energy);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CplxVec x(100);
  EXPECT_THROW(fft_inplace(x), InvalidArgument);
}

// ------------------------------------------------------------- fft plan ----

TEST(FftPlan, CacheReturnsOneSharedPlanPerSize) {
  const FftPlan& a = fft_plan(256);
  const FftPlan& b = fft_plan(256);
  const FftPlan& c = fft_plan(512);
  EXPECT_EQ(&a, &b);  // same immutable plan object
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(c.size(), 512u);
}

TEST(FftPlan, ExecutesInPlaceIntoCallerBuffer) {
  Rng rng(13);
  CplxVec x(128);
  for (auto& v : x) v = rng.cgaussian();
  CplxVec y = x;
  const FftPlan& plan = fft_plan(128);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(FftPlan, MatchesLegacyFreeFunctions) {
  Rng rng(14);
  CplxVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  CplxVec via_plan = x;
  fft_plan(64).forward(via_plan.data());
  CplxVec via_free = x;
  fft_inplace(via_free);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(via_plan[i], via_free[i]);  // same code path, bit-identical
  }
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(96), InvalidArgument);
  EXPECT_THROW(fft_plan(100), InvalidArgument);
}

RealVec random_real(Rng& rng, std::size_t n) {
  RealVec v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

/// The radix-2 kernel as it stood before its butterfly went to split
/// doubles: std::complex arithmetic, the forward twiddle conjugated inside
/// the loop for the inverse. The reference for the bit-for-bit test below.
class ReferenceFft {
 public:
  explicit ReferenceFft(std::size_t n) : n_(n), rev_(n) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev_[i] = j;
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = -two_pi / static_cast<double>(len);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double a = ang * static_cast<double>(k);
        twiddle_.emplace_back(std::cos(a), std::sin(a));
      }
    }
  }

  void run(cplx* x, bool inverse) const {
    for (std::size_t i = 1; i < n_; ++i) {
      if (i < rev_[i]) std::swap(x[i], x[rev_[i]]);
    }
    std::size_t tw = 0;
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const cplx* w = twiddle_.data() + tw;
      const std::size_t half = len / 2;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cplx wk = inverse ? std::conj(w[k]) : w[k];
          const cplx u = x[i + k];
          const cplx v = x[i + k + half] * wk;
          x[i + k] = u + v;
          x[i + k + half] = u - v;
        }
      }
      tw += half;
    }
    if (inverse) {
      const double inv_n = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) x[i] *= inv_n;
    }
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> rev_;
  CplxVec twiddle_;
};

/// Bitwise equality, relaxed to rounding (relative to \p scale) only where
/// an FMA-capable -march=native build may fuse the kernel and the reference
/// differently.
void expect_same_bits(const CplxVec& got, const CplxVec& want, [[maybe_unused]] double scale,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
#ifdef __FMA__
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].real(), want[i].real(), 1e-12 * scale) << what << ", index " << i;
    ASSERT_NEAR(got[i].imag(), want[i].imag(), 1e-12 * scale) << what << ", index " << i;
  }
#else
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(cplx)), 0)
        << what << ", index " << i << ": " << got[i] << " vs " << want[i];
  }
#endif
}

/// Overlap-save full linear convolution exactly as ols_run computes it
/// (same block size rule, same block loop) on the reference kernel, with
/// std::complex's operator*= for the spectrum product.
CplxVec reference_ols_full(const CplxVec& x, const CplxVec& h) {
  const std::size_t out_len = x.size() + h.size() - 1;
  const std::size_t n =
      std::min(next_pow2(out_len), std::max<std::size_t>(1024, next_pow2(4 * h.size())));
  const std::size_t hop = n - h.size() + 1;
  const ReferenceFft fft(n);
  CplxVec kernel(n, cplx{});
  std::copy(h.begin(), h.end(), kernel.begin());
  fft.run(kernel.data(), false);
  CplxVec out(out_len);
  CplxVec block(n);
  for (std::size_t s = 0; s < out_len; s += hop) {
    const auto i0 = static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h.size() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t i = i0 + static_cast<std::ptrdiff_t>(j);
      block[j] = (i >= 0 && i < static_cast<std::ptrdiff_t>(x.size()))
                     ? x[static_cast<std::size_t>(i)]
                     : cplx{};
    }
    fft.run(block.data(), false);
    for (std::size_t k = 0; k < n; ++k) block[k] *= kernel[k];
    fft.run(block.data(), true);
    for (std::size_t t = 0; t < std::min(hop, out_len - s); ++t) {
      out[s + t] = block[h.size() - 1 + t];
    }
  }
  return out;
}

/// The real x real overlap-save loop of ols_run_real on the library's
/// RfftPlan (whose complex half-size kernel the test below pins against
/// the reference), with std::complex's operator*= for the spectrum product.
RealVec reference_ols_full_real(const RealVec& x, const RealVec& h) {
  const std::size_t out_len = x.size() + h.size() - 1;
  const std::size_t n =
      std::min(next_pow2(out_len), std::max<std::size_t>(1024, next_pow2(4 * h.size())));
  const std::size_t hop = n - h.size() + 1;
  const RfftPlan& plan = rfft_plan(n);
  RealVec block(n, 0.0);
  std::copy(h.begin(), h.end(), block.begin());
  CplxVec kernel(plan.bins());
  plan.forward(block.data(), kernel.data());
  CplxVec spec(plan.bins());
  RealVec out(out_len);
  for (std::size_t s = 0; s < out_len; s += hop) {
    const auto i0 = static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h.size() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t i = i0 + static_cast<std::ptrdiff_t>(j);
      block[j] = (i >= 0 && i < static_cast<std::ptrdiff_t>(x.size()))
                     ? x[static_cast<std::size_t>(i)]
                     : 0.0;
    }
    plan.forward(block.data(), spec.data());
    for (std::size_t k = 0; k < spec.size(); ++k) spec[k] *= kernel[k];
    plan.inverse(spec.data(), block.data());
    for (std::size_t t = 0; t < std::min(hop, out_len - s); ++t) {
      out[s + t] = block[h.size() - 1 + t];
    }
  }
  return out;
}

CplxVec as_cplx(const RealVec& v) { return CplxVec(v.begin(), v.end()); }

TEST(FftPlan, ButterflyMatchesStdComplexReferenceBitForBit) {
  // Every size from 1 to 2^15, forward and inverse, on Gaussian data laced
  // with signed zeros and subnormals.
  Rng rng(0xFF7B);
  const double specials[] = {0.0, -0.0, 4.9e-324, -4.9e-324, 2.2e-310, -1.7e-308};
  for (std::size_t n = 1; n <= (std::size_t{1} << 15); n <<= 1) {
    CplxVec x(n);
    for (cplx& v : x) {
      v = rng.cgaussian();
      if (rng.uniform() < 0.1) v.real(specials[rng.uniform_int(0, 5)]);
      if (rng.uniform() < 0.1) v.imag(specials[rng.uniform_int(0, 5)]);
    }
    const ReferenceFft ref(n);
    const double scale = static_cast<double>(n);
    for (const bool inverse : {false, true}) {
      CplxVec got = x;
      CplxVec want = x;
      if (inverse) {
        fft_plan(n).inverse(got.data());
      } else {
        fft_plan(n).forward(got.data());
      }
      ref.run(want.data(), inverse);
      expect_same_bits(got, want, scale,
                       std::string(inverse ? "inverse" : "forward") + " n=" + std::to_string(n));
    }
  }

  // The overlap-save convolution and correlation outputs, single-block and
  // multi-block, complex and real kernels.
  FftWorkspace ws;
  for (const auto& [x_len, h_len] : {std::pair<std::size_t, std::size_t>{700, 40},
                                     {5000, 16}, {5000, 300}, {3000, 1100}}) {
    const CplxVec xc = [&] {
      CplxVec v(x_len);
      for (cplx& c : v) c = rng.cgaussian();
      return v;
    }();
    CplxVec hc(h_len);
    for (cplx& c : hc) c = rng.cgaussian();
    const RealVec xr = random_real(rng, x_len);
    const RealVec hr = random_real(rng, h_len);
    const double scale = static_cast<double>(h_len);
    const std::string what = "x_len=" + std::to_string(x_len) + " h_len=" + std::to_string(h_len);

    CplxVec got;
    ols_convolve(xc, hr, got, ws);
    expect_same_bits(got, reference_ols_full(xc, as_cplx(hr)), scale, "cplx-real convolve " + what);
    ols_correlate(xc, hc, got, ws);
    CplxVec flipped(h_len);
    for (std::size_t i = 0; i < h_len; ++i) flipped[i] = std::conj(hc[h_len - 1 - i]);
    const CplxVec full = reference_ols_full(xc, flipped);
    expect_same_bits(got, CplxVec(full.begin() + static_cast<std::ptrdiff_t>(h_len - 1),
                                  full.begin() + static_cast<std::ptrdiff_t>(x_len)),
                     scale, "cplx correlate " + what);

    RealVec got_r;
    ols_convolve(xr, hr, got_r, ws);
    expect_same_bits(as_cplx(got_r), as_cplx(reference_ols_full_real(xr, hr)), scale,
                     "real convolve " + what);
  }
}

// ----------------------------------------------------------- real-input fft ----

/// The half spectrum of \p x zero-padded to \p n through the real plan.
CplxVec half_spectrum(const RealVec& x, std::size_t n) {
  const RfftPlan& plan = rfft_plan(n);
  RealVec padded(n, 0.0);
  std::copy(x.begin(), x.end(), padded.begin());
  CplxVec spec(plan.bins());
  plan.forward(padded.data(), spec.data());
  return spec;
}

/// Parseval's sum of a real signal's spectrum from its half spectrum:
/// interior bins count twice.
double half_spectrum_energy(const CplxVec& half) {
  double energy = std::norm(half.front()) + std::norm(half.back());
  for (std::size_t k = 1; k + 1 < half.size(); ++k) energy += 2.0 * std::norm(half[k]);
  return energy;
}

TEST(Rfft, MatchesComplexFftHalfSpectrum) {
  // Power-of-two, odd, prime-factor and tiny sizes zero-padded to the next
  // power of two: the half spectrum must match the complex transform of the
  // same padded input bin for bin.
  Rng rng(50);
  for (std::size_t n : {2ul, 4ul, 8ul, 17ul, 96ul, 97ul, 255ul, 1024ul, 4096ul}) {
    const RealVec x = random_real(rng, n);
    const std::size_t len = next_pow2(n);
    CplxVec full(len, cplx{});
    std::copy(x.begin(), x.end(), full.begin());
    fft_plan(len).forward(full.data());
    const CplxVec half = half_spectrum(x, len);
    ASSERT_EQ(half.size(), full.size() / 2 + 1) << "n=" << n;
    for (std::size_t k = 0; k < half.size(); ++k) {
      ASSERT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-9) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rfft, RoundTripIsExactToRounding) {
  Rng rng(51);
  for (std::size_t n : {2ul, 8ul, 64ul, 1024ul, 2048ul}) {
    const RealVec x = random_real(rng, n);
    CplxVec spec = half_spectrum(x, n);
    RealVec back(n);
    rfft_plan(n).inverse(spec.data(), back.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(back[i], x[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Rfft, ParsevalHoldsOnHalfSpectrum) {
  Rng rng(52);
  const std::size_t n = 512;
  const RealVec x = random_real(rng, n);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  EXPECT_NEAR(half_spectrum_energy(half_spectrum(x, n)) / static_cast<double>(n), time_energy,
              1e-9 * time_energy);
}

TEST(Rfft, EnergyConservedThroughChannelConvolution) {
  // End-to-end energy bookkeeping on the path the receiver actually uses:
  // convolve a real waveform with a channel-like impulse response (long
  // enough for the overlap-save real path), then check that the output's
  // time-domain energy matches the Parseval sum over its half spectrum.
  // Guards the real-input convolution path against scaling bugs in either
  // direction of the transform.
  Rng rng(53);
  const RealVec x = random_real(rng, 700);
  RealVec h(101);
  for (std::size_t i = 0; i < h.size(); ++i) {
    // Exponentially decaying multipath-style taps.
    h[i] = rng.gaussian() * std::exp(-0.08 * static_cast<double>(i));
  }
  ASSERT_TRUE(use_fft_convolve(x.size(), h.size(), ConvKind::kRealReal));
  const RealVec y = convolve(x, h);
  ASSERT_EQ(y.size(), x.size() + h.size() - 1);

  double time_energy = 0.0;
  for (double v : y) time_energy += v * v;
  const std::size_t n_fft = next_pow2(y.size());
  EXPECT_NEAR(half_spectrum_energy(half_spectrum(y, n_fft)) / static_cast<double>(n_fft),
              time_energy, 1e-9 * time_energy);
}

TEST(Rfft, PlanCacheSharesPlans) {
  const RfftPlan& a = rfft_plan(256);
  const RfftPlan& b = rfft_plan(256);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(a.bins(), 129u);
  EXPECT_THROW(rfft_plan(48), InvalidArgument);
  EXPECT_THROW(rfft_plan(1), InvalidArgument);
}

// -------------------------------------------------- fft convolve dispatch ----

CplxVec random_cplx(Rng& rng, std::size_t n) {
  CplxVec v(n);
  for (auto& x : v) x = rng.cgaussian();
  return v;
}

/// Size pairs straddling the dispatch thresholds: short kernels (direct on
/// both paths), crossover-sized, far above, odd lengths, and h longer
/// than x.
const std::pair<std::size_t, std::size_t> kConvSizes[] = {
    {100, 7}, {1000, 33}, {513, 129}, {4096, 129}, {4097, 255},
    {257, 513}, {129, 4096}, {2048, 2048}, {1, 1},
};

/// The "same"-mode window of a full convolution (group delay compensated
/// for a kernel of \p h_len taps), as convolve_same defines it.
template <typename T>
std::vector<T> same_window(const std::vector<T>& full, std::size_t x_len, std::size_t h_len) {
  const auto start = static_cast<std::ptrdiff_t>((h_len - 1) / 2);
  return std::vector<T>(full.begin() + start,
                        full.begin() + start + static_cast<std::ptrdiff_t>(x_len));
}

/// Exact equality of two sample vectors, byte for byte.
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(FastConvolve, RealConvolutionMatchesDirect) {
  Rng rng(40);
  for (const auto& [nx, nh] : kConvSizes) {
    const RealVec x = random_real(rng, nx);
    const RealVec h = random_real(rng, nh);
    const RealVec direct = convolve_direct(x, h);
    // Force the FFT kernel regardless of the threshold.
    RealVec viafft;
    FftWorkspace ws;
    ols_convolve(x, h, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size()) << nx << "x" << nh;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(direct[i], viafft[i], 1e-9) << nx << "x" << nh << " @" << i;
    }
  }
}

TEST(FastConvolve, CplxRealConvolutionMatchesDirect) {
  Rng rng(41);
  for (const auto& [nx, nh] : kConvSizes) {
    const CplxVec x = random_cplx(rng, nx);
    const RealVec h = random_real(rng, nh);
    const CplxVec direct = convolve_direct(x, h);
    CplxVec viafft;
    FftWorkspace ws;
    ols_convolve(x, h, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - viafft[i]), 0.0, 1e-9) << nx << "x" << nh;
    }
  }
}

TEST(FastConvolve, ConvolveSameFftMatchesDirect) {
  // Above-threshold sizes, so convolve_same actually takes the FFT path.
  Rng rng(43);
  const CplxVec x = random_cplx(rng, 4096);
  const RealVec h = random_real(rng, 201);
  ASSERT_TRUE(use_fft_convolve(x.size(), h.size(), ConvKind::kCplxReal));
  const CplxVec direct = same_window(convolve_direct(x, h), x.size(), h.size());
  const CplxVec fast = convolve_same(x, h);
  ASSERT_EQ(direct.size(), x.size());
  ASSERT_EQ(fast.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(std::abs(direct[i] - fast[i]), 0.0, 1e-9);
  }
}

TEST(FastConvolve, CorrelationMatchesDirect) {
  Rng rng(44);
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {500, 32}, {2048, 64}, {4096, 511}, {1023, 1000}, {64, 64},
  };
  for (const auto& [nx, nm] : sizes) {
    const CplxVec x = random_cplx(rng, nx);
    const CplxVec tmpl = random_cplx(rng, nm);
    const CplxVec direct = correlate_direct(x, tmpl);
    CplxVec viafft;
    FftWorkspace ws;
    ols_correlate(x, tmpl, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - viafft[i]), 0.0, 1e-9) << nx << "x" << nm;
    }
  }
}

TEST(FastConvolve, EdgeCasesMatchDirectSemantics) {
  FftWorkspace ws;
  RealVec out_r{1.0};
  ols_convolve(RealVec{}, RealVec{1.0}, out_r, ws);
  EXPECT_TRUE(out_r.empty());
  CplxVec out_c{cplx{1.0, 0.0}};
  ols_convolve(CplxVec{}, RealVec{1.0}, out_c, ws);
  EXPECT_TRUE(out_c.empty());
  EXPECT_TRUE(convolve_direct(RealVec{}, RealVec{1.0}).empty());
  // Template longer than the signal: correlate defines this as empty.
  CplxVec out_corr{cplx{1.0, 0.0}};
  ols_correlate(CplxVec(4, cplx{1.0, 0.0}), CplxVec(9, cplx{1.0, 0.0}), out_corr, ws);
  EXPECT_TRUE(out_corr.empty());
  EXPECT_TRUE(correlate(CplxVec(4, cplx{}), CplxVec(9, cplx{})).empty());
  EXPECT_TRUE(correlate_direct(CplxVec(4), CplxVec(9)).empty());
}

TEST(FastConvolve, KernelSpectrumIsReusedOnlyForBitEqualTaps) {
  // A repeat correlation against the same template at the same block size
  // reuses the workspace's kernel spectrum and returns the same bytes as a
  // fresh workspace; templates that differ only in the sign of a zero are
  // another kernel, and the spectrum is recomputed from them. The kernel is
  // the conjugate-reversed template, so template sample 192 is tap 7.
  Rng rng(46);
  CplxVec x(3000);
  for (auto& v : x) v = rng.cgaussian();
  CplxVec h(200);
  for (auto& v : h) v = rng.cgaussian();
  h[192] = {0.0, 0.5};
  CplxVec h_neg = h;
  h_neg[192] = {-0.0, 0.5};

  const auto fresh = [&](const CplxVec& tmpl) {
    FftWorkspace own;
    CplxVec out;
    ols_correlate(x, tmpl, out, own);
    return std::pair{out, own.kernel_fft};
  };
  FftWorkspace ws;
  CplxVec first;
  CplxVec again;
  ols_correlate(x, h, first, ws);
  ols_correlate(x, h, again, ws);
  EXPECT_TRUE(same_bytes(first, fresh(h).first));
  EXPECT_TRUE(same_bytes(again, first));

  CplxVec neg;
  ols_correlate(x, h_neg, neg, ws);
  EXPECT_TRUE(std::signbit(ws.kernel_key[7].real()));
  const auto [neg_want, neg_spectrum] = fresh(h_neg);
  EXPECT_TRUE(same_bytes(neg, neg_want));
  EXPECT_TRUE(same_bytes(ws.kernel_fft, neg_spectrum));
}

TEST(FastConvolve, DispatchDependsOnlyOnSizes) {
  // Below either the kernel or the product floor stays direct.
  EXPECT_FALSE(use_fft_convolve(1u << 20, 8, ConvKind::kCplxCplx));
  EXPECT_FALSE(use_fft_convolve(64, 64, ConvKind::kCplxCplx));
  EXPECT_TRUE(use_fft_convolve(1u << 12, 1u << 10, ConvKind::kCplxCplx));
  EXPECT_TRUE(use_fft_convolve(1u << 20, 1u << 10, ConvKind::kCplxCplx));
  // Real kernels need more taps before the FFT wins than complex ones.
  EXPECT_FALSE(use_fft_convolve(1u << 12, 64, ConvKind::kRealReal));
  EXPECT_TRUE(use_fft_convolve(1u << 12, 64, ConvKind::kCplxReal));
  // Empty operands never take the FFT path.
  EXPECT_FALSE(use_fft_convolve(0, 1u << 10, ConvKind::kCplxCplx));
  EXPECT_FALSE(use_fft_convolve(1u << 12, 0, ConvKind::kRealReal));
}

TEST(FastConvolve, DispatchIsBitExactAndStateless) {
  // convolve and correlate return exactly the kernel use_fft_convolve
  // names for their sizes -- the overlap-save result above the crossover,
  // the direct one below it -- and the same bytes again on a second call.
  // The sizes straddle each kind's tap threshold and the kFftMinProduct
  // floor.
  const std::pair<ConvKind, std::size_t> kinds[] = {
      {ConvKind::kRealReal, kFftMinKernelRealReal},
      {ConvKind::kCplxReal, kFftMinKernelCplxReal},
      {ConvKind::kCplxCplx, kFftMinKernelCplxCplx},
  };
  Rng rng(45);
  FftWorkspace ws;  // a second workspace: results must not depend on which
  const auto expect_exact = [](const auto& first, const auto& second, const auto& want,
                               const std::string& what) {
    EXPECT_TRUE(same_bytes(first, want)) << what;
    EXPECT_TRUE(same_bytes(second, first)) << what << ", second call";
  };
  for (const auto& [kind, taps] : kinds) {
    const std::size_t floor_len = (kFftMinProduct + taps - 1) / taps;
    const std::tuple<std::size_t, std::size_t, bool> sizes[] = {
        {4096, taps - 1, false},
        {4096, taps, true},
        {floor_len - 1, taps, false},
        {floor_len, taps, true},
    };
    for (const auto& [nx, nh, fft] : sizes) {
      const std::string at = std::to_string(nx) + "x" + std::to_string(nh);
      ASSERT_EQ(use_fft_convolve(nx, nh, kind), fft) << at;
      if (kind == ConvKind::kRealReal) {
        const RealVec x = random_real(rng, nx);
        const RealVec h = random_real(rng, nh);
        RealVec conv = convolve_direct(x, h);
        if (fft) ols_convolve(x, h, conv, ws);
        expect_exact(convolve(x, h), convolve(x, h), conv, "convolve " + at);
      } else if (kind == ConvKind::kCplxReal) {
        const CplxVec x = random_cplx(rng, nx);
        const RealVec h = random_real(rng, nh);
        CplxVec conv = convolve_direct(x, h);
        if (fft) ols_convolve(x, h, conv, ws);
        expect_exact(convolve(x, h), convolve(x, h), conv, "convolve " + at);
      } else {
        const CplxVec x = random_cplx(rng, nx);
        const CplxVec h = random_cplx(rng, nh);
        CplxVec corr = correlate_direct(x, h);
        if (fft) ols_correlate(x, h, corr, ws);
        expect_exact(correlate(x, h), correlate(x, h), corr, "correlate " + at);
      }
    }
  }
}

// -------------------------------------------------------------- windows ----

class WindowTypedTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypedTest, SymmetricAndBounded) {
  const RealVec w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "asymmetric at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypedTest,
                         ::testing::Values(WindowType::kRectangular, WindowType::kHann,
                                           WindowType::kHamming, WindowType::kBlackman,
                                           WindowType::kKaiser));

TEST(Window, BesselI0) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658, 1e-6);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871, 1e-4);
}

// -------------------------------------------------------- filter design ----

TEST(FilterDesign, LowpassGains) {
  const double fs = 100e6;
  const RealVec taps = design_lowpass(10e6, fs, 101);
  EXPECT_NEAR(fir_gain_db_at(taps, 0.0, fs), 0.0, 0.01);       // DC
  EXPECT_NEAR(fir_gain_db_at(taps, 10e6, fs), -6.0, 1.0);      // edge
  EXPECT_LT(fir_gain_db_at(taps, 25e6, fs), -40.0);            // stopband
}

TEST(FilterDesign, RrcMatchedPairIsNyquist) {
  // RRC convolved with itself must satisfy the Nyquist criterion.
  const int sps = 8;
  const RealVec rrc = design_root_raised_cosine(1e6, 0.35, 6, sps);
  const RealVec rc = convolve(rrc, rrc);
  const std::size_t center = (rc.size() - 1) / 2;
  const double peak = rc[center];
  EXPECT_NEAR(peak, 1.0, 1e-6);  // unit-energy RRC -> unit peak
  for (int k = 1; k <= 4; ++k) {
    EXPECT_NEAR(rc[center + static_cast<std::size_t>(k * sps)] / peak, 0.0, 1e-3);
  }
}

TEST(FilterDesign, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(60e6, 100e6, 31), InvalidArgument);
  EXPECT_THROW(design_lowpass(10e6, 100e6, 1), InvalidArgument);
  EXPECT_THROW(design_root_raised_cosine(1e6, 1.5, 4, 8), InvalidArgument);
}

// ------------------------------------------------------------------ fir ----

TEST(FirFilter, StreamingMatchesBlock) {
  Rng rng(6);
  RealVec taps(9);
  for (auto& t : taps) t = rng.gaussian();
  RealVec x(50);
  for (auto& v : x) v = rng.gaussian();

  FirFilter<double> streaming(taps);
  RealVec y_stream;
  for (double v : x) y_stream.push_back(streaming.step(v));

  const RealVec y_full = convolve(x, taps);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_stream[i], y_full[i], 1e-12);
  }
}

TEST(FirFilter, StatePersistsAcrossBlocks) {
  RealVec taps = {0.5, 0.5};
  FirFilter<double> f(taps);
  (void)f.process({1.0});
  const auto y = f.process({0.0});
  EXPECT_NEAR(y[0], 0.5, 1e-12);  // remembers the previous sample
  f.reset();
  const auto z = f.process({0.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
}

TEST(FirFilter, ConvolveSameCompensatesGroupDelay) {
  // Same-mode filtering of an impulse with a symmetric kernel returns the
  // kernel centered on the impulse position.
  RealVec x(11, 0.0);
  x[5] = 1.0;
  const RealVec kernel = {0.25, 0.5, 0.25};
  RealVec y = x;
  convolve_same_inplace(y.data(), y.size(), kernel);
  EXPECT_NEAR(y[5], 0.5, 1e-12);
  EXPECT_NEAR(y[4], 0.25, 1e-12);
  EXPECT_NEAR(y[6], 0.25, 1e-12);
}

TEST(FirFilter, InPlaceRailsMatchComplexConvolveSameBitForBit) {
  // The gen-2 anti-alias FIR runs in place on the I and Q rails. Each rail
  // must reproduce the direct complex "same"-mode convolution exactly --
  // odd and even tap counts, inputs shorter than the taps, and captures
  // spanning several staging blocks. Exact wherever multiply-adds are not
  // fused; an FMA-capable -march=native build may fuse the two forms
  // differently, so there they agree to rounding.
#ifdef __FMA__
  constexpr double kTol = 1e-14;
#else
  constexpr double kTol = 0.0;
#endif
  Rng rng(0x51DE);
  for (const std::size_t taps : {1u, 2u, 8u, 31u, 62u, 63u}) {
    RealVec h(taps);
    for (double& v : h) v = rng.gaussian();
    for (const std::size_t n : {1u, 3u, 7u, 62u, 63u, 64u, 1023u, 1024u, 2600u}) {
      CplxVec x(n);
      for (cplx& v : x) v = rng.cgaussian();
      const CplxVec want = same_window(convolve_direct(x, h), n, h.size());
      RealVec xi(n);
      RealVec xq(n);
      for (std::size_t k = 0; k < n; ++k) {
        xi[k] = x[k].real();
        xq[k] = x[k].imag();
      }
      convolve_same_inplace(xi.data(), n, h);
      convolve_same_inplace(xq.data(), n, h);
      for (std::size_t k = 0; k < n; ++k) {
        const double scale = kTol * (1.0 + std::abs(want[k]));
        ASSERT_NEAR(xi[k], want[k].real(), scale) << taps << " taps, n=" << n << ", sample " << k;
        ASSERT_NEAR(xq[k], want[k].imag(), scale) << taps << " taps, n=" << n << ", sample " << k;
      }
    }
  }
}

TEST(FirFilter, RangeBlocksMatchSequentialSameModeSum) {
  // The float "same"-mode FIR, run block by block -- blocks that straddle
  // the edge outputs, inputs shorter than the kernel -- gives every output
  // as the textbook sum over the overlapping taps, ascending over the
  // reversed kernel. Exact wherever multiply-adds are not fused.
#ifdef __FMA__
  constexpr float kTol = 1e-5f;
#else
  constexpr float kTol = 0.0f;
#endif
  Rng rng(0xB10C);
  for (const std::size_t taps : {1u, 4u, 11u, 63u}) {
    std::vector<float> r(taps);
    for (float& v : r) v = static_cast<float>(rng.gaussian());
    const auto lead = static_cast<std::ptrdiff_t>(taps / 2);  // taps - 1 - (taps - 1) / 2
    for (const std::size_t n : {1u, 10u, 62u, 63u, 64u, 700u}) {
      std::vector<float> x(n);
      for (float& v : x) v = static_cast<float>(rng.gaussian());
      std::vector<float> want(n);
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t m = 0; m < taps; ++m) {
          const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(j + m) - lead;
          if (i < 0 || i >= static_cast<std::ptrdiff_t>(n)) continue;
          acc += x[static_cast<std::size_t>(i)] * r[m];
        }
        want[j] = acc;
      }
      for (const std::size_t block : {1u, 7u, 64u, 2048u}) {
        std::vector<float> got(n);
        for (std::size_t j0 = 0; j0 < n; j0 += block) {
          const std::size_t j1 = std::min(n, j0 + block);
          convolve_same_range(x.data(), n, r.data(), taps, j0, j1, got.data() + j0);
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_NEAR(got[j], want[j], kTol * (1.0f + std::abs(want[j])))
              << taps << " taps, n=" << n << ", block " << block << ", output " << j;
        }
      }
    }
  }
}

// ----------------------------------------------------------- correlator ----

TEST(Correlator, FindsEmbeddedTemplate) {
  Rng rng(8);
  CplxVec tmpl(32);
  for (auto& v : tmpl) v = rng.cgaussian();
  CplxVec x(256, cplx{});
  const std::size_t where = 77;
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[where + i] = tmpl[i];

  const RealVec nc = normalized_correlation(x, tmpl);
  EXPECT_EQ(static_cast<std::size_t>(std::max_element(nc.begin(), nc.end()) - nc.begin()),
            where);
  EXPECT_NEAR(nc[where], 1.0, 1e-9);
}

/// Resident set size of this process in bytes (/proc/self/statm).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

bool cache_line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

TEST(AlignedVec, LargeBlocksStayAlignedThroughGrowthAndMoves) {
  // Blocks on both sides of kMapBytes: operator new below it, mapped pages
  // from it up (outside ASan builds).
  for (const std::size_t n : {std::size_t{1000}, kMapBytes / sizeof(float),
                              3 * kMapBytes / sizeof(float) + 7}) {
    AlignedVec<float> v(n);
    ASSERT_TRUE(cache_line_aligned(v.data())) << n;
    v.resize(2 * n + 1);  // growth: contents unspecified, storage fresh
    ASSERT_TRUE(cache_line_aligned(v.data())) << n;
    EXPECT_EQ(v.size(), 2 * n + 1);
    std::fill(v.begin(), v.end(), 2.5f);
    v.resize(n);  // shrinking keeps the block
    EXPECT_EQ(v.capacity(), 2 * n + 1);

    const float* block = v.data();
    AlignedVec<float> moved(std::move(v));
    EXPECT_EQ(moved.data(), block);
    EXPECT_EQ(moved.size(), n);
    EXPECT_EQ(v.data(), nullptr);
    EXPECT_EQ(v.capacity(), 0u);

    AlignedVec<float> target(3 * kMapBytes / sizeof(float));  // released by the assignment
    target.assign_zero(target.size());
    target = std::move(moved);
    EXPECT_EQ(target.data(), block);
    EXPECT_EQ(target.capacity(), 2 * n + 1);
    EXPECT_EQ(moved.data(), nullptr);
    EXPECT_TRUE(std::all_of(target.begin(), target.end(), [](float x) { return x == 2.5f; }));
  }
}

TEST(AlignedVec, ReleasedLargeBlockLeavesTheResidentSet) {
  // A released block of kMapBytes or more goes back to the kernel at once.
  // Through malloc it would not, once the process has freed a larger
  // block, as every sweep does: glibc then raises its mmap threshold,
  // serves later blocks from the heap and keeps their pages when freed.
  if (!kMapLargeBlocks) GTEST_SKIP() << "AddressSanitizer build: every block is operator new";
  {
    char* volatile larger = static_cast<char*>(std::malloc(16 * kMapBytes));
    ASSERT_NE(larger, nullptr);
    larger[0] = 1;
    std::free(larger);
  }
  constexpr std::size_t kBytes = 8 * kMapBytes;
  std::size_t before = 0;
  {
    AlignedVec<double> v;
    v.assign_zero(kBytes / sizeof(double));  // touches every page
    std::fill(v.begin(), v.end(), 1.0);
    before = resident_bytes();
  }
  const std::size_t after = resident_bytes();
  ASSERT_GE(before, after);
  EXPECT_GE(before - after, kBytes * 9 / 10) << "before " << before << " B, after " << after;
}

/// dot_bank against the textbook per-lag sum acc += x[j+m] * h[m], over
/// random lag counts 0..100 (32-lag blocks plus a tail) and 1..63 taps.
template <typename T>
void expect_dot_bank_matches_sequential(Rng& rng, std::size_t num_lags, std::size_t h_len) {
  // Exact wherever multiply-adds are not fused (both clones of a portable
  // build); an FMA-capable -march=native build may fuse the bank and this
  // reference differently, so there they agree to rounding.
#ifdef __FMA__
  constexpr double kTol = std::is_same_v<T, float> ? 1e-5 : 1e-13;
#else
  constexpr double kTol = 0.0;
#endif
  std::vector<T> x(num_lags + h_len - 1);
  std::vector<T> h(h_len);
  for (T& v : x) v = static_cast<T>(rng.gaussian());
  for (T& v : h) v = static_cast<T>(rng.gaussian());
  std::vector<T> got(num_lags + 1, T{-7});  // one guard slot past the end
  dot_bank(x.data(), num_lags, h.data(), h_len, got.data());
  for (std::size_t j = 0; j < num_lags; ++j) {
    T acc{};
    for (std::size_t m = 0; m < h_len; ++m) acc += x[j + m] * h[m];
    if constexpr (kTol == 0.0) {
      ASSERT_EQ(got[j], acc) << num_lags << " lags, " << h_len << " taps, lag " << j;
    } else {
      ASSERT_NEAR(got[j], acc, kTol * (1.0 + std::abs(acc)));
    }
  }
  EXPECT_EQ(got[num_lags], T{-7}) << "wrote past num_lags";
}

TEST(Correlator, DotBankMatchesSequentialSumBitForBit) {
  // dot_bank picks its AVX2 clone or the portable default at run time; the
  // clone leaves FMA off, so on any x86-64 host each lag is the sequential
  // ascending-tap sum exactly, in float and in double.
  Rng rng(0xD07B);
  for (const std::size_t lags : {0u, 1u, 31u, 32u, 33u, 64u, 95u, 100u}) {
    expect_dot_bank_matches_sequential<double>(rng, lags, 63);
    expect_dot_bank_matches_sequential<float>(rng, lags, 11);
  }
  for (int round = 0; round < 200; ++round) {
    const auto lags = static_cast<std::size_t>(rng.uniform_int(0, 100));
    const auto taps = static_cast<std::size_t>(rng.uniform_int(1, 63));
    expect_dot_bank_matches_sequential<double>(rng, lags, taps);
    expect_dot_bank_matches_sequential<float>(rng, lags, taps);
  }
}

/// Every lag of one dot_bank call against the same lag computed alone
/// (num_lags = 1), compared bit for bit.
template <typename T, typename Bits>
void expect_every_lag_matches_single(Rng& rng, std::size_t num_lags, std::size_t h_len) {
  std::vector<T> x(num_lags + h_len - 1);
  std::vector<T> h(h_len);
  for (T& v : x) v = static_cast<T>(rng.gaussian());
  for (T& v : h) v = static_cast<T>(rng.gaussian());
  std::vector<T> bank(num_lags);
  dot_bank(x.data(), num_lags, h.data(), h_len, bank.data());
  for (std::size_t j = 0; j < num_lags; ++j) {
    T single{};
    dot_bank(x.data() + j, 1, h.data(), h_len, &single);
    ASSERT_EQ(std::bit_cast<Bits>(bank[j]), std::bit_cast<Bits>(single))
        << num_lags << " lags, " << h_len << " taps, lag " << j;
  }
}

TEST(DotBank, EveryLagMatchesItsSingleLagCall) {
  // A lag's value must not depend on where it sits in the bank (a full
  // 32-lag block or the last partial one): the gen-1 receiver digitizes
  // windows of any length and promises the bits of a dense pass. This
  // holds on every build, -march=native with FMA included, where the
  // sequential-sum comparison above only holds to rounding. Tap counts
  // past 64 cross the partial block's tap chunks.
  Rng rng(0x1A65);
  for (const std::size_t taps : {1u, 4u, 11u, 63u, 64u, 65u, 150u}) {
    for (std::size_t lags = 1; lags <= 100; ++lags) {
      expect_every_lag_matches_single<double, std::uint64_t>(rng, lags, taps);
      expect_every_lag_matches_single<float, std::uint32_t>(rng, lags, taps);
    }
  }
}

TEST(ShiftedSum, MatchesTheScatterSumBitForBit) {
  // shifted_sum against out = 0; for m: out[o_m + i - first] += w_m * k[i]
  // over random term counts, equal and spread offsets, windows that start
  // inside and past the terms, and kernels with +/-0 ends (trimmed) or all
  // zero. Exact wherever multiply-adds are not fused; an FMA-capable
  // -march=native build may fuse the two forms differently.
#ifdef __FMA__
  constexpr double kTol = 1e-13;
#else
  constexpr double kTol = 0.0;
#endif
  Rng rng(0x5417);
  for (int round = 0; round < 300; ++round) {
    const auto terms = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto k_len = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 60));
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 150));
    RealVec w = random_real(rng, terms);
    RealVec k = random_real(rng, k_len);
    const int zeros = rng.uniform_int(0, 3);  // 0: none, 1: -0 lead, 2: +0 tail, 3: all
    if (zeros == 1) {
      for (std::size_t i = 0; i < std::min<std::size_t>(k_len, 5); ++i) k[i] = -0.0;
    } else if (zeros == 2) {
      for (std::size_t i = k_len / 2; i < k_len; ++i) k[i] = 0.0;
    } else if (zeros == 3) {
      for (double& v : k) v = round % 2 == 0 ? 0.0 : -0.0;
    }
    std::vector<std::size_t> offsets(terms);
    std::size_t o = static_cast<std::size_t>(rng.uniform_int(0, 20));
    for (std::size_t m = 0; m < terms; ++m) {
      o += static_cast<std::size_t>(rng.uniform_int(0, 9));  // repeats allowed
      offsets[m] = o;
    }
    RealVec want(count, 0.0);
    for (std::size_t m = 0; m < terms; ++m) {
      for (std::size_t i = 0; i < k_len; ++i) {
        const std::size_t n = offsets[m] + i;
        if (n >= first && n < first + count) want[n - first] += w[m] * k[i];
      }
    }
    RealVec got(count + 1, -7.0);  // one guard slot past the end
    shifted_sum(w.data(), offsets.data(), terms, k.data(), k_len, first, count, got.data());
    for (std::size_t j = 0; j < count; ++j) {
      if constexpr (kTol == 0.0) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]), std::bit_cast<std::uint64_t>(want[j]))
            << "round " << round << ", output " << j << ": " << got[j] << " vs " << want[j];
      } else {
        ASSERT_NEAR(got[j], want[j], kTol * (1.0 + std::abs(want[j])));
      }
    }
    ASSERT_EQ(got[count], -7.0) << "round " << round << " wrote past count";
  }
}

TEST(Correlator, NormalizedIsScaleInvariant) {
  Rng rng(9);
  CplxVec tmpl(16);
  for (auto& v : tmpl) v = rng.cgaussian();
  CplxVec x(64, cplx{});
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[10 + i] = 3.7 * tmpl[i];
  const RealVec nc = normalized_correlation(x, tmpl);
  EXPECT_NEAR(nc[10], 1.0, 1e-9);
}

TEST(Correlator, IntegrateAndDump) {
  IntegrateAndDump<double> iad(4);
  double out = 0.0;
  int dumps = 0;
  for (int i = 1; i <= 8; ++i) {
    if (iad.push(1.0, out)) {
      ++dumps;
      EXPECT_DOUBLE_EQ(out, 4.0);
    }
  }
  EXPECT_EQ(dumps, 2);
}

// ------------------------------------------------------------------ psd ----

TEST(PowerSpectrum, WhiteNoiseLevel) {
  // PSD of white noise with variance s^2 at rate fs is s^2/fs (one-sided
  // doubles it but spreads over fs/2 -- total power must come back).
  Rng rng(10);
  const double fs = 1e9;
  RealVec x(65536);
  for (auto& v : x) v = rng.gaussian();
  const Psd psd = welch_psd(RealWaveform(x, fs), 1024);
  EXPECT_NEAR(psd.total_power(), 1.0, 0.05);
}

TEST(PowerSpectrum, TonePeakFrequency) {
  const double fs = 1e9;
  const double f0 = 123e6;
  RealVec x(32768);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::cos(two_pi * f0 * i / fs);
  const Psd psd = welch_psd(RealWaveform(x, fs), 2048);
  const std::size_t peak = psd.peak_bin();
  EXPECT_NEAR(psd.freq_hz[peak], f0, fs / 2048.0);
  // The tone power (0.5 for unit-amplitude cosine) integrates back.
  EXPECT_NEAR(psd.total_power(), 0.5, 0.05);
}

TEST(PowerSpectrum, ComplexPsdCoversNegativeFrequencies) {
  const double fs = 1e9;
  const double f0 = -200e6;
  CplxVec x(16384);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::polar(1.0, two_pi * f0 * static_cast<double>(i) / fs);
  }
  const Psd psd = welch_psd(CplxWaveform(x, fs), 1024);
  const std::size_t peak = psd.peak_bin();
  EXPECT_NEAR(psd.freq_hz[peak], f0, fs / 1024.0);
}

TEST(PowerSpectrum, BandwidthMeasures) {
  // 500 MHz-wide flat band around DC (complex): occupied BW ~ 500 MHz.
  Rng rng(11);
  const double fs = 4e9;
  CplxVec x(65536);
  for (auto& v : x) v = rng.cgaussian();
  // Filter to +/-250 MHz.
  const RealVec lp = design_lowpass(250e6, fs, 255);
  x = convolve_same(x, lp);
  const Psd psd = welch_psd(CplxWaveform(x, fs), 2048);
  EXPECT_NEAR(occupied_bandwidth(psd, 0.99), 500e6, 100e6);
  EXPECT_NEAR(bandwidth_at_level(psd, -10.0), 500e6, 120e6);
}

}  // namespace
}  // namespace uwb::dsp
