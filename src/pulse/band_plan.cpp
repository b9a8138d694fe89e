#include "pulse/band_plan.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace uwb::pulse {

BandPlan::BandPlan() {
  // 14 channels of 500 MHz across 3.1-10.6 GHz (7.5 GHz total). Uniform
  // center spacing (7500 - 500)/13 = 538.46 MHz keeps channel 0's lower edge
  // at 3.1 GHz and channel 13's upper edge at 10.6 GHz exactly; neighboring
  // channels overlap slightly less than they would at 500 MHz spacing.
  const double first_center = fcc_band_low_hz + bandwidth_ / 2.0;
  const double last_center = fcc_band_high_hz - bandwidth_ / 2.0;
  const double spacing = (last_center - first_center) / (num_band_channels - 1);
  channels_.reserve(num_band_channels);
  for (int i = 0; i < num_band_channels; ++i) {
    BandChannel ch;
    ch.index = i;
    ch.center_hz = first_center + spacing * i;
    ch.low_hz = ch.center_hz - bandwidth_ / 2.0;
    ch.high_hz = ch.center_hz + bandwidth_ / 2.0;
    channels_.push_back(ch);
  }
}

const BandChannel& BandPlan::channel(int index) const {
  detail::require(index >= 0 && index < static_cast<int>(channels_.size()),
                  "BandPlan::channel: index out of range");
  return channels_[static_cast<std::size_t>(index)];
}

int BandPlan::nearest_channel(double freq_hz) const noexcept {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (const auto& ch : channels_) {
    const double d = std::abs(ch.center_hz - freq_hz);
    if (d < best_d) {
      best_d = d;
      best = ch.index;
    }
  }
  return best;
}

}  // namespace uwb::pulse
