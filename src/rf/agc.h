#pragma once
/// \file agc.h
/// \brief Variable-gain amplifier with an automatic gain control loop that
///        loads the ADC optimally -- critical at 1-5 bit resolutions where
///        both clipping and underloading destroy the paper's resolution
///        trade-offs.

#include <cstddef>

namespace uwb::rf {

/// AGC parameters.
struct AgcParams {
  double target_rms = 0.25;       ///< desired rms relative to ADC full scale 1.0
  double min_gain_db = -40.0;
  double max_gain_db = 60.0;
};

/// Gain control: one_shot() measures the whole buffer and sets the exact
/// gain (models a converged AGC during the preamble).
class Agc {
 public:
  explicit Agc(const AgcParams& params = {});

  [[nodiscard]] const AgcParams& params() const noexcept { return params_; }
  [[nodiscard]] double gain_db() const noexcept { return gain_db_; }

  /// Measures the rms of the \p n-sample split-I/Q rails and applies the
  /// exact gain to hit target_rms, clamped to the gain range, to both in
  /// place.
  void one_shot(double* i, double* q, std::size_t n);

  void reset() noexcept { gain_db_ = 0.0; }

 private:
  AgcParams params_;
  double gain_db_ = 0.0;
};

}  // namespace uwb::rf
