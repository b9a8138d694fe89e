#pragma once
/// \file notch_filter.h
/// \brief Tunable notch for narrowband-interferer suppression. The digital
///        back end's spectral monitor estimates the interferer frequency
///        "that may be used in the front end notch filter" (paper Section 3)
///        -- this is that filter.
///
/// A first-order complex coefficient notch kills a single signed baseband
/// frequency, the natural form after direct conversion.

#include <cstddef>

#include "common/types.h"

namespace uwb::rf {

/// Complex baseband notch: H(z) = (1 - e^{jw0} z^-1) / (1 - r e^{jw0} z^-1).
/// Unity gain far from w0, zero exactly at w0; \p pole_radius r in (0,1)
/// sets the notch width (closer to 1 = narrower).
class ComplexNotch {
 public:
  ComplexNotch(double f0_hz, double fs, double pole_radius = 0.98);

  [[nodiscard]] double center_frequency() const noexcept { return f0_; }
  [[nodiscard]] double pole_radius() const noexcept { return r_; }

  /// Filters \p n samples at fs in place on split I/Q rails, continuing
  /// from the state the previous call left (reset() starts afresh).
  void process(double* x_i, double* x_q, std::size_t n) noexcept;

  /// The analytic response H(e^{j 2 pi f / fs}): the reference the
  /// recurrence's steady state is checked against.
  [[nodiscard]] cplx response_at(double f_hz) const;

  void reset() noexcept { state_ = cplx{}; prev_in_ = cplx{}; }

 private:
  double f0_;
  double fs_;
  double r_;
  cplx zero_rot_;   ///< e^{j w0}
  cplx state_{};    ///< previous output
  cplx prev_in_{};  ///< previous input
};

}  // namespace uwb::rf
