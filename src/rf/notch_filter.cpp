#include "rf/notch_filter.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

ComplexNotch::ComplexNotch(double f0_hz, double fs, double pole_radius)
    : f0_(f0_hz), fs_(fs), r_(pole_radius) {
  detail::require(fs > 0.0, "ComplexNotch: fs must be positive");
  detail::require(std::abs(f0_hz) < fs / 2.0, "ComplexNotch: |f0| must be < fs/2");
  detail::require(pole_radius > 0.0 && pole_radius < 1.0,
                  "ComplexNotch: pole radius must be in (0,1)");
  zero_rot_ = std::polar(1.0, two_pi * f0_ / fs_);
}

void ComplexNotch::process(double* x_i, double* x_q, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    // y[n] = x[n] - e^{jw0} x[n-1] + r e^{jw0} y[n-1]
    const cplx x(x_i[k], x_q[k]);
    const cplx y = x - zero_rot_ * prev_in_ + r_ * zero_rot_ * state_;
    prev_in_ = x;
    state_ = y;
    x_i[k] = y.real();
    x_q[k] = y.imag();
  }
}

cplx ComplexNotch::response_at(double f_hz) const {
  const cplx z_inv = std::polar(1.0, -two_pi * f_hz / fs_);
  return (1.0 - zero_rot_ * z_inv) / (1.0 - r_ * zero_rot_ * z_inv);
}

}  // namespace uwb::rf
