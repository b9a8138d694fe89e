#include "common/math_utils.h"

#include <algorithm>

namespace uwb {

double q_function_inv(double p) {
  // Bisection on the monotone decreasing Q over x in [-10, 10] covers
  // p in (Q(10), Q(-10)) ~ (7.6e-24, 1 - 7.6e-24), far more than any BER
  // target the simulator uses.
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (q_function(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double energy(const RealVec& x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

double peak_abs(const RealVec& x) {
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::abs(v));
  return peak;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double wrap_phase(double phi) {
  while (phi > pi) phi -= two_pi;
  while (phi <= -pi) phi += two_pi;
  return phi;
}

}  // namespace uwb
