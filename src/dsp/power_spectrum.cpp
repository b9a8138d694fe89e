#include "dsp/power_spectrum.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/fft.h"

namespace uwb::dsp {

double Psd::dbm_per_mhz(std::size_t bin) const {
  // W/Hz -> mW/MHz: * 1e3 (W->mW) * 1e6 (per-Hz -> per-MHz).
  const double mw_per_mhz = density_w_per_hz[bin] * 1e9;
  return 10.0 * std::log10(std::max(mw_per_mhz, 1e-300));
}

std::size_t Psd::bin_of(double f_hz) const {
  detail::require(!freq_hz.empty(), "Psd::bin_of: empty PSD");
  std::size_t best = 0;
  double best_d = std::abs(freq_hz[0] - f_hz);
  for (std::size_t i = 1; i < freq_hz.size(); ++i) {
    const double d = std::abs(freq_hz[i] - f_hz);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

double Psd::total_power() const {
  if (freq_hz.size() < 2) return 0.0;
  const double df = freq_hz[1] - freq_hz[0];
  double acc = 0.0;
  for (double d : density_w_per_hz) acc += d * df;
  return acc;
}

std::size_t Psd::peak_bin() const {
  return static_cast<std::size_t>(
      std::distance(density_w_per_hz.begin(),
                    std::max_element(density_w_per_hz.begin(), density_w_per_hz.end())));
}

namespace {

/// Shared Welch machinery. Returns averaged |X[k]|^2 / (fs * window_power)
/// over 50%-overlapped windowed segments, full two-sided bin order.
RealVec welch_bins(const CplxVec& x, std::size_t segment_len, WindowType window, double fs) {
  detail::require(is_pow2(segment_len), "welch_psd: segment_len must be a power of two");
  detail::require(x.size() >= segment_len, "welch_psd: signal shorter than segment");
  const RealVec w = make_window(window, segment_len);
  double window_power = 0.0;
  for (double v : w) window_power += v * v;

  const std::size_t hop = segment_len / 2;
  RealVec acc(segment_len, 0.0);
  std::size_t count = 0;
  CplxVec seg(segment_len);
  for (std::size_t start = 0; start + segment_len <= x.size(); start += hop) {
    for (std::size_t i = 0; i < segment_len; ++i) seg[i] = x[start + i] * w[i];
    fft_inplace(seg);
    for (std::size_t i = 0; i < segment_len; ++i) acc[i] += std::norm(seg[i]);
    ++count;
  }
  const double norm = 1.0 / (static_cast<double>(count) * fs * window_power);
  for (auto& v : acc) v *= norm;
  return acc;
}

}  // namespace

Psd welch_psd(const RealWaveform& x, std::size_t segment_len, WindowType window) {
  CplxVec cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = cplx(x[i], 0.0);
  RealVec bins = welch_bins(cx, segment_len, window, x.sample_rate());

  // One-sided: keep bins [0, N/2], double interior bins to conserve power.
  const std::size_t half = segment_len / 2;
  Psd psd;
  psd.freq_hz.resize(half + 1);
  psd.density_w_per_hz.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    psd.freq_hz[k] = static_cast<double>(k) * x.sample_rate() / static_cast<double>(segment_len);
    const double scale = (k == 0 || k == half) ? 1.0 : 2.0;
    psd.density_w_per_hz[k] = scale * bins[k];
  }
  return psd;
}

namespace {

/// Frequency of FFT bin \p k for length \p n at sample rate \p fs, mapped
/// to [-fs/2, fs/2).
double bin_frequency(std::size_t k, std::size_t n, double fs) {
  const double f = static_cast<double>(k) * fs / static_cast<double>(n);
  return (k < n / 2) ? f : f - fs;
}

}  // namespace

Psd welch_psd(const CplxWaveform& x, std::size_t segment_len, WindowType window) {
  RealVec bins = welch_bins(x.samples(), segment_len, window, x.sample_rate());
  // Two-sided, re-ordered to ascending frequency [-fs/2, fs/2).
  Psd psd;
  psd.freq_hz.resize(segment_len);
  psd.density_w_per_hz.resize(segment_len);
  const std::size_t half = segment_len / 2;
  for (std::size_t i = 0; i < segment_len; ++i) {
    const std::size_t k = (i + half) % segment_len;  // start from -fs/2
    psd.freq_hz[i] = bin_frequency(k, segment_len, x.sample_rate());
    psd.density_w_per_hz[i] = bins[k];
  }
  return psd;
}

double occupied_bandwidth(const Psd& psd, double fraction) {
  detail::require(fraction > 0.0 && fraction < 1.0, "occupied_bandwidth: fraction in (0,1)");
  if (psd.freq_hz.size() < 2) return 0.0;
  const double df = psd.freq_hz[1] - psd.freq_hz[0];
  const double total = psd.total_power();
  if (total <= 0.0) return 0.0;

  // Grow a window outward from the peak until the fraction is captured.
  const std::size_t peak = psd.peak_bin();
  double captured = psd.density_w_per_hz[peak] * df;
  std::size_t lo = peak, hi = peak;
  while (captured < fraction * total) {
    const double left = lo > 0 ? psd.density_w_per_hz[lo - 1] : -1.0;
    const double right = hi + 1 < psd.density_w_per_hz.size() ? psd.density_w_per_hz[hi + 1] : -1.0;
    if (left < 0.0 && right < 0.0) break;
    if (left >= right) {
      --lo;
      captured += left * df;
    } else {
      ++hi;
      captured += right * df;
    }
  }
  return static_cast<double>(hi - lo + 1) * df;
}

double bandwidth_at_level(const Psd& psd, double level_db) {
  if (psd.freq_hz.size() < 2) return 0.0;
  const std::size_t peak = psd.peak_bin();
  const double threshold = psd.density_w_per_hz[peak] * from_db(level_db);
  // Walk outward until density stays below threshold.
  std::size_t lo = peak;
  while (lo > 0 && psd.density_w_per_hz[lo - 1] >= threshold) --lo;
  std::size_t hi = peak;
  while (hi + 1 < psd.density_w_per_hz.size() && psd.density_w_per_hz[hi + 1] >= threshold) ++hi;
  return psd.freq_hz[hi] - psd.freq_hz[lo];
}

}  // namespace uwb::dsp
