#include "pulse/pulse_train.h"

#include <cmath>

namespace uwb::pulse {

std::size_t samples_per_frame(const PulseTrainSpec& spec) {
  detail::require(spec.prf_hz > 0.0 && spec.sample_rate_hz > 0.0,
                  "pulse_train: rates must be positive");
  const double exact = spec.sample_rate_hz / spec.prf_hz;
  const auto rounded = static_cast<std::size_t>(std::round(exact));
  detail::require(std::abs(exact - static_cast<double>(rounded)) < 1e-6,
                  "pulse_train: sample rate must be an integer multiple of the PRF");
  detail::require(rounded >= 1, "pulse_train: PRF exceeds sample rate");
  return rounded;
}

}  // namespace uwb::pulse
