#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "common/math_utils.h"
#include "obs/profile.h"

namespace uwb::dsp {

// ---------------------------------------------------------------- FftPlan ----

FftPlan::FftPlan(std::size_t n) : n_(n) {
  detail::require(is_pow2(n), "FftPlan: length must be a power of two");

  rev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = static_cast<std::uint32_t>(j);
  }

  // Forward twiddles exp(-2 pi i k / len) for every stage, concatenated:
  // len = 2 contributes 1 entry, len = 4 two entries, ... (n - 1 total).
  twiddle_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -two_pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double a = ang * static_cast<double>(k);
      twiddle_.emplace_back(std::cos(a), std::sin(a));
    }
  }
  // Conjugation only flips a sign bit, so the inverse table is exact.
  twiddle_inv_.reserve(twiddle_.size());
  for (const cplx& w : twiddle_) twiddle_inv_.push_back(std::conj(w));
}

void FftPlan::run(cplx* x, bool inverse) const noexcept {
  const obs::StageTimer timer(obs::Stage::kFftExec, n_);
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  // The butterfly runs on the interleaved doubles. v = b * w is written out
  // as std::complex's operator* expands it -- the same four products, the
  // same subtraction and addition -- but without the test-and-branch to its
  // NaN-recovery call (__muldc3), which changes nothing unless an operand
  // is infinite.
  double* d = reinterpret_cast<double*>(x);
  const double* tw = reinterpret_cast<const double*>(
      inverse ? twiddle_inv_.data() : twiddle_.data());
  const auto butterfly = [](double* a, double* b, double wr, double wi) {
    const double br = b[0];
    const double bi = b[1];
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ur = a[0];
    const double ui = a[1];
    a[0] = ur + vr;
    a[1] = ui + vi;
    b[0] = ur - vr;
    b[1] = ui - vi;
  };
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    if (half < 4) {
      // Few butterflies per block: run twiddle-major rather than through
      // one- and two-iteration inner loops. A stage's butterflies are
      // independent, so the order changes no result bit.
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * k];
        const double wi = tw[2 * k + 1];
        for (std::size_t i = k; i < n; i += len) butterfly(d + 2 * i, d + 2 * (i + half), wr, wi);
      }
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        double* a = d + 2 * i;
        double* b = a + 2 * half;
        for (std::size_t k = 0; k < half; ++k) {
          butterfly(a + 2 * k, b + 2 * k, tw[2 * k], tw[2 * k + 1]);
        }
      }
    }
    tw += 2 * half;
  }
}

void FftPlan::forward(cplx* x) const noexcept { run(x, false); }

void FftPlan::inverse(cplx* x) const noexcept {
  run(x, true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] *= inv_n;
}

namespace {
// Plan-cache state. The map is never destroyed (returned references must
// stay valid for the process lifetime); hit/miss counters live under the
// same mutex as the map, so fft_plan pays no extra synchronization.
std::mutex g_plan_mutex;
std::uint64_t g_plan_hits = 0;
std::uint64_t g_plan_misses = 0;
}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  detail::require(is_pow2(n), "fft_plan: length must be a power of two");
  // Plans are never evicted, so returned references stay valid; the map
  // lives for the process lifetime and holds one immutable plan per size.
  static std::map<std::size_t, std::unique_ptr<FftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  auto& slot = (*cache)[n];
  if (slot == nullptr) {
    ++g_plan_misses;
    slot = std::make_unique<FftPlan>(n);
  } else {
    ++g_plan_hits;
  }
  return *slot;
}

FftPlanCacheStats fft_plan_cache_stats() {
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  return FftPlanCacheStats{g_plan_hits, g_plan_misses};
}

// --------------------------------------------------------------- RfftPlan ----

RfftPlan::RfftPlan(std::size_t n, const FftPlan& half) : n_(n), half_(&half) {
  detail::require(is_pow2(n) && n >= 2, "RfftPlan: length must be a power of two >= 2");
  detail::require(half.size() == n / 2, "RfftPlan: half plan size mismatch");
  const std::size_t m = n / 2;
  w_.resize(m / 2 + 1);
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const double a = -two_pi * static_cast<double>(k) / static_cast<double>(n);
    w_[k] = cplx(std::cos(a), std::sin(a));
  }
}

void RfftPlan::forward(const double* x, cplx* spec) const noexcept {
  const std::size_t m = n_ / 2;
  // Pack pairs of reals into the half-length complex buffer z[j] =
  // x[2j] + i*x[2j+1] and transform once at size m.
  for (std::size_t j = 0; j < m; ++j) spec[j] = cplx(x[2 * j], x[2 * j + 1]);
  half_->forward(spec);
  // Disentangle: with E/O the spectra of the even/odd subsequences,
  //   E[k] = (Z[k] + conj(Z[m-k])) / 2,  O[k] = (Z[k] - conj(Z[m-k])) / (2i),
  //   X[k] = E[k] + W_n^k * O[k],        X[m-k] = conj(E[k] - W_n^k * O[k]).
  const cplx z0 = spec[0];
  spec[0] = cplx(z0.real() + z0.imag(), 0.0);
  spec[m] = cplx(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k < m - k; ++k) {
    const cplx a = spec[k];
    const cplx b = spec[m - k];
    const cplx e = 0.5 * (a + std::conj(b));
    const cplx o = cplx(0.0, -0.5) * (a - std::conj(b));
    const cplx t = w_[k] * o;
    spec[k] = e + t;
    spec[m - k] = std::conj(e - t);
  }
  // Self-paired bin k = m/2: W_n^{m/2} = -i collapses to a conjugation.
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
}

void RfftPlan::inverse(cplx* spec, double* x) const noexcept {
  const std::size_t m = n_ / 2;
  // Re-entangle the half spectrum into the packed half-length transform:
  //   E[k] = (X[k] + conj(X[m-k])) / 2,
  //   O[k] = conj(W_n^k) * (X[k] - conj(X[m-k])) / 2,
  //   Z[k] = E[k] + i * O[k].
  // Bin 0 folds X[0] and X[m] (imaginary parts ignored: they are zero for
  // any spectrum of a real signal, and for products of such spectra).
  const double x0 = spec[0].real();
  const double xm = spec[m].real();
  spec[0] = cplx(0.5 * (x0 + xm), 0.5 * (x0 - xm));
  for (std::size_t k = 1; k < m - k; ++k) {
    const cplx a = spec[k];
    const cplx b = spec[m - k];
    const cplx e = 0.5 * (a + std::conj(b));
    const cplx o = std::conj(w_[k]) * (0.5 * (a - std::conj(b)));
    spec[k] = e + cplx(-o.imag(), o.real());
    spec[m - k] = std::conj(e) + cplx(o.imag(), o.real());
  }
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
  // The half plan's 1/m scale is exactly the 1/n the real transform needs
  // once the factor-of-two packing is unwound.
  half_->inverse(spec);
  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = spec[j].real();
    x[2 * j + 1] = spec[j].imag();
  }
}

const RfftPlan& rfft_plan(std::size_t n) {
  detail::require(is_pow2(n) && n >= 2, "rfft_plan: length must be a power of two >= 2");
  // Resolve the half-size complex plan before taking the lock below —
  // fft_plan() serializes on the same mutex.
  const FftPlan& half = fft_plan(n / 2);
  static std::map<std::size_t, std::unique_ptr<RfftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<RfftPlan>>();
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  auto& slot = (*cache)[n];
  if (slot == nullptr) {
    ++g_plan_misses;
    slot = std::make_unique<RfftPlan>(n, half);
  } else {
    ++g_plan_hits;
  }
  return *slot;
}

// ----------------------------------------------------------- free helpers ----

void fft_inplace(CplxVec& x) {
  detail::require(is_pow2(x.size()), "fft: length must be a power of two");
  fft_plan(x.size()).forward(x.data());
}

}  // namespace uwb::dsp
