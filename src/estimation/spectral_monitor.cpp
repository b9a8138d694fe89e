#include "estimation/spectral_monitor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/fft.h"
#include "dsp/window.h"

namespace uwb::estimation {

namespace {

struct HannWindow {
  RealVec w;
  double power = 0.0;  ///< sum of w[i]^2
};

/// The Hann window of one size and its power, built once per process. Every
/// gen-2 receiver owns a monitor and a sweep builds a receiver per point,
/// so a window per monitor would show up as set-up time.
const HannWindow& shared_hann(std::size_t n) {
  static std::mutex mutex;
  static auto* cache = new std::map<std::size_t, std::unique_ptr<const HannWindow>>();
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = (*cache)[n];
  if (slot == nullptr) {
    auto window = std::make_unique<HannWindow>();
    window->w = dsp::hann(n);
    for (double v : window->w) window->power += v * v;
    slot = std::move(window);
  }
  return *slot;
}

}  // namespace

SpectralMonitor::SpectralMonitor(const SpectralMonitorConfig& config) : config_(config) {
  detail::require(is_pow2(config.fft_size), "SpectralMonitor: FFT size must be a power of two");
  detail::require(config.num_averages >= 1, "SpectralMonitor: averages must be >= 1");
  detail::require(config.detect_threshold_db > 0.0,
                  "SpectralMonitor: threshold must be positive");
  const HannWindow& window = shared_hann(config.fft_size);
  window_ = &window.w;
  window_power_ = window.power;
}

InterfererReport SpectralMonitor::analyze(const CplxWaveform& x) const {
  const std::size_t n = config_.fft_size;
  detail::require(x.size() >= n, "SpectralMonitor: capture shorter than FFT size");

  // Averaged windowed periodogram (Hann) over up to num_averages segments.
  const std::size_t max_segments =
      std::min<std::size_t>(static_cast<std::size_t>(config_.num_averages), x.size() / n);
  RealVec bins(n, 0.0);
  CplxVec seg(n);
  for (std::size_t s = 0; s < max_segments; ++s) {
    const std::size_t off = s * n;
    for (std::size_t i = 0; i < n; ++i) seg[i] = x[off + i] * (*window_)[i];
    dsp::fft_inplace(seg);
    for (std::size_t i = 0; i < n; ++i) bins[i] += std::norm(seg[i]);
  }
  const double norm = 1.0 / (static_cast<double>(max_segments) * window_power_);
  for (auto& b : bins) b *= norm;

  // Peak and median.
  const std::size_t peak = static_cast<std::size_t>(
      std::distance(bins.begin(), std::max_element(bins.begin(), bins.end())));
  RealVec sorted = bins;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   sorted.end());
  const double median = std::max(sorted[n / 2], 1e-300);

  InterfererReport report;
  report.peak_over_median_db = to_db(bins[peak] / median);
  report.detected = report.peak_over_median_db >= config_.detect_threshold_db;
  report.estimated_power = bins[peak];

  // Sub-bin frequency via parabolic interpolation of log-magnitude.
  const double y0 = std::log(std::max(bins[(peak + n - 1) % n], 1e-300));
  const double y1 = std::log(std::max(bins[peak], 1e-300));
  const double y2 = std::log(std::max(bins[(peak + 1) % n], 1e-300));
  double delta = 0.0;
  const double denom = y0 - 2.0 * y1 + y2;
  if (std::abs(denom) > 1e-12) {
    delta = 0.5 * (y0 - y2) / denom;
    delta = std::clamp(delta, -0.5, 0.5);
  }
  const double fs = x.sample_rate();
  double freq = (static_cast<double>(peak) + delta) * fs / static_cast<double>(n);
  if (freq >= fs / 2.0) freq -= fs;  // map to signed baseband offset
  report.frequency_hz = freq;
  return report;
}

}  // namespace uwb::estimation
