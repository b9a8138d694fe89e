#include "dsp/window.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::dsp {

namespace {

/// Generalized cosine window sum_k a_k cos(2 pi k n / (N-1)).
RealVec cosine_window(std::size_t n, double a0, double a1, double a2) {
  RealVec w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = two_pi * static_cast<double>(i) / denom;
    w[i] = a0 - a1 * std::cos(x) + a2 * std::cos(2.0 * x);
  }
  return w;
}

}  // namespace

double bessel_i0(double x) {
  // Power-series; converges quickly for the |x| <= ~30 used by Kaiser betas.
  double sum = 1.0;
  double term = 1.0;
  const double half_x = x / 2.0;
  for (int k = 1; k < 64; ++k) {
    term *= (half_x / k) * (half_x / k);
    sum += term;
    if (term < 1e-18 * sum) break;
  }
  return sum;
}

RealVec hann(std::size_t n) { return cosine_window(n, 0.5, 0.5, 0.0); }

RealVec hamming(std::size_t n) { return cosine_window(n, 0.54, 0.46, 0.0); }

RealVec blackman(std::size_t n) { return cosine_window(n, 0.42, 0.5, 0.08); }

RealVec kaiser(std::size_t n, double beta) {
  detail::require(beta >= 0.0, "kaiser: beta must be non-negative");
  RealVec w(n, 1.0);
  if (n == 1) return w;
  const double denom = bessel_i0(beta);
  const double m = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = 2.0 * static_cast<double>(i) / m - 1.0;  // -1..1
    w[i] = bessel_i0(beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / denom;
  }
  return w;
}

RealVec make_window(WindowType type, std::size_t n, double kaiser_beta) {
  detail::require(n >= 1, "make_window: n must be >= 1");
  switch (type) {
    case WindowType::kRectangular:
      return RealVec(n, 1.0);
    case WindowType::kHann:
      return hann(n);
    case WindowType::kHamming:
      return hamming(n);
    case WindowType::kBlackman:
      return blackman(n);
    case WindowType::kKaiser:
      return kaiser(n, kaiser_beta);
  }
  throw InvalidArgument("make_window: unknown window type");
}

}  // namespace uwb::dsp
