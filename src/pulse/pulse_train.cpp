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

RealWaveform build_train(const RealWaveform& prototype, const std::vector<PulseSlot>& slots,
                         const PulseTrainSpec& spec) {
  detail::require(prototype.sample_rate() == spec.sample_rate_hz,
                  "build_train: prototype rate mismatch");
  const std::size_t frame = samples_per_frame(spec);
  const std::size_t total = frame * slots.size() + prototype.size();
  RealWaveform out(total, spec.sample_rate_hz);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const auto& slot = slots[k];
    const double off_samples = slot.time_offset_s * spec.sample_rate_hz;
    const auto off = static_cast<std::ptrdiff_t>(std::llround(off_samples));
    const auto base = static_cast<std::ptrdiff_t>(k * frame) + off;
    for (std::size_t i = 0; i < prototype.size(); ++i) {
      const std::ptrdiff_t idx = base + static_cast<std::ptrdiff_t>(i);
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(total)) {
        out[static_cast<std::size_t>(idx)] += slot.amplitude * prototype[i];
      }
    }
  }
  return out;
}

}  // namespace uwb::pulse
