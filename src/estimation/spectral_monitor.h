#pragma once
/// \file spectral_monitor.h
/// \brief The "Spectral Monitoring" block of Fig. 3: detects a narrowband
///        interferer buried in (or towering over) the UWB signal and
///        estimates its frequency for the RF notch filter.
///
/// Detection logic: a UWB signal's periodogram is nearly flat across the
/// channel; a narrowband interferer concentrates power into a few bins.
/// The monitor compares the peak bin against the median bin level -- a
/// robust noise-floor reference -- and flags an interferer when the ratio
/// exceeds a threshold. Frequency is refined by parabolic interpolation of
/// the log-magnitude around the peak (sub-bin accuracy).

#include <cstddef>
#include <optional>

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::estimation {

/// Monitor configuration.
struct SpectralMonitorConfig {
  std::size_t fft_size = 1024;
  double detect_threshold_db = 12.0;  ///< peak over median to declare detection
  int num_averages = 4;               ///< periodogram averaging segments
};

/// Detection report.
struct InterfererReport {
  bool detected = false;
  double frequency_hz = 0.0;      ///< signed baseband offset estimate
  double peak_over_median_db = 0.0;
  double estimated_power = 0.0;   ///< interferer power estimate
};

/// FFT-based narrowband interferer detector / frequency estimator.
class SpectralMonitor {
 public:
  explicit SpectralMonitor(const SpectralMonitorConfig& config);

  [[nodiscard]] const SpectralMonitorConfig& config() const noexcept { return config_; }

  /// Analyzes a complex baseband capture.
  [[nodiscard]] InterfererReport analyze(const CplxWaveform& x) const;

 private:
  SpectralMonitorConfig config_;
  const RealVec* window_ = nullptr;  ///< shared Hann window of fft_size points
  double window_power_ = 0.0;        ///< sum of (*window_)[i]^2
};

}  // namespace uwb::estimation
