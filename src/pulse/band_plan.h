#pragma once
/// \file band_plan.h
/// \brief The gen-2 band plan: fourteen 500 MHz sub-band channels spanning
///        the FCC 3.1-10.6 GHz allocation ("upconverted to one of 14
///        channels", paper Section 3).

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace uwb::pulse {

/// One sub-band channel of the band plan.
struct BandChannel {
  int index = 0;          ///< 0..13
  double center_hz = 0.0; ///< carrier frequency
  double low_hz = 0.0;    ///< lower band edge
  double high_hz = 0.0;   ///< upper band edge
};

/// The 14-channel plan. Channels are 500 MHz wide, packed edge-to-edge
/// starting at the 3.1 GHz FCC edge with a uniform spacing chosen so the
/// topmost channel's upper edge stays within 10.6 GHz.
class BandPlan {
 public:
  BandPlan();

  /// Number of channels (14).
  [[nodiscard]] std::size_t num_channels() const noexcept { return channels_.size(); }

  /// Channel descriptor by index (throws on out-of-range).
  [[nodiscard]] const BandChannel& channel(int index) const;

  /// All channels.
  [[nodiscard]] const std::vector<BandChannel>& channels() const noexcept { return channels_; }

  /// Carrier frequency of channel \p index.
  [[nodiscard]] double center_frequency(int index) const { return channel(index).center_hz; }

  /// The channel whose carrier is nearest \p freq_hz.
  [[nodiscard]] int nearest_channel(double freq_hz) const noexcept;

  /// Channel width (uniform) in Hz.
  [[nodiscard]] double channel_bandwidth() const noexcept { return bandwidth_; }

 private:
  std::vector<BandChannel> channels_;
  double bandwidth_ = pulse_bandwidth_hz;
};

}  // namespace uwb::pulse
