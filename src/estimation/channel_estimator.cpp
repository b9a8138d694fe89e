#include "estimation/channel_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/correlator.h"

namespace uwb::estimation {

ChannelEstimator::ChannelEstimator(const ChannelEstimatorConfig& config) : config_(config) {
  detail::require(config.quantization_bits >= 0 && config.quantization_bits <= 16,
                  "ChannelEstimator: quantization bits must be in [0,16]");
  detail::require(config.max_taps >= 1, "ChannelEstimator: max taps must be >= 1");
  detail::require(config.max_delay_samples >= 1,
                  "ChannelEstimator: estimation window must be >= 1");
}

cplx ChannelEstimator::quantize_tap(cplx tap, double full_scale) const {
  if (config_.quantization_bits == 0 || full_scale <= 0.0) return tap;
  // Mid-tread quantizer over [-full_scale, full_scale] per component with
  // 2^bits levels (sign included), matching a b-bit two's-complement
  // register in the back end.
  const int levels = 1 << config_.quantization_bits;
  const double step = 2.0 * full_scale / levels;
  auto q = [&](double v) {
    const double idx = std::round(v / step);
    const double clamped = std::clamp(idx, -static_cast<double>(levels / 2),
                                      static_cast<double>(levels / 2 - 1));
    return clamped * step;
  };
  return {q(tap.real()), q(tap.imag())};
}

ChannelEstimate ChannelEstimator::estimate(const CplxWaveform& x, const CplxVec& tmpl,
                                           std::size_t coarse_offset) const {
  detail::require(!tmpl.empty(), "ChannelEstimator: empty template");
  detail::require(x.size() >= tmpl.size(), "ChannelEstimator: buffer shorter than template");

  ChannelEstimate est;

  // Correlator profile: one complex tap per candidate delay, starting a bit
  // before the coarse offset so an early first path is not missed.
  const std::size_t back_off = std::min<std::size_t>(coarse_offset, 8);
  const std::size_t start = coarse_offset - back_off;
  const std::size_t lags_in_x = x.size() - tmpl.size() + 1;
  detail::require(start < lags_in_x, "ChannelEstimator: no room for estimation window");
  const std::size_t num_lags = std::min(config_.max_delay_samples + back_off, lags_in_x - start);

  double tmpl_energy = 0.0;
  for (const auto& v : tmpl) tmpl_energy += std::norm(v);
  detail::require(tmpl_energy > 0.0, "ChannelEstimator: zero-energy template");

  // One sliding correlation over the estimation window: dsp::correlate
  // dispatches long preamble templates to overlap-save FFT correlation
  // instead of num_lags independent O(|tmpl|) dot products.
  const auto first = x.samples().begin() + static_cast<std::ptrdiff_t>(start);
  const CplxVec window(first,
                       first + static_cast<std::ptrdiff_t>(num_lags + tmpl.size() - 1));
  est.raw_taps = dsp::correlate(window, tmpl);
  for (auto& tap : est.raw_taps) tap /= tmpl_energy;

  // Strongest path defines the scaling reference.
  const std::size_t peak = dsp::argmax_abs(est.raw_taps);
  est.peak_magnitude = std::abs(est.raw_taps[peak]);
  est.profile_start = start;
  est.peak_index = peak;
  est.reference_offset = start + peak;
  if (est.peak_magnitude <= 0.0) {
    est.cir = channel::Cir(std::vector<channel::CirTap>{});
    return est;
  }

  // Normalize to the peak, quantize, threshold, collect taps. Delays are
  // reported relative to the first kept tap.
  const double fs = x.sample_rate();
  const double thresh_mag = est.peak_magnitude * db_to_amp(config_.tap_threshold_db);

  struct Candidate {
    std::size_t lag;
    cplx gain;
  };
  std::vector<Candidate> kept;
  for (std::size_t lag = 0; lag < num_lags; ++lag) {
    if (std::abs(est.raw_taps[lag]) < thresh_mag) continue;
    const cplx normalized = est.raw_taps[lag] / est.peak_magnitude;
    const cplx q = quantize_tap(normalized, 1.0);
    if (std::abs(q) <= 0.0) continue;
    kept.push_back({lag, q * est.peak_magnitude});
  }

  // Keep the strongest max_taps.
  std::sort(kept.begin(), kept.end(),
            [](const Candidate& a, const Candidate& b) { return std::norm(a.gain) > std::norm(b.gain); });
  if (kept.size() > config_.max_taps) kept.resize(config_.max_taps);
  std::sort(kept.begin(), kept.end(),
            [](const Candidate& a, const Candidate& b) { return a.lag < b.lag; });

  std::vector<channel::CirTap> taps;
  taps.reserve(kept.size());
  const std::size_t first_lag = kept.empty() ? 0 : kept.front().lag;
  for (const auto& c : kept) {
    taps.push_back({static_cast<double>(c.lag - first_lag) / fs, c.gain});
  }
  if (!kept.empty()) {
    est.reference_offset = start + first_lag;
  }
  est.cir = channel::Cir(std::move(taps));
  return est;
}

}  // namespace uwb::estimation
