// Tests for channel estimation (with the paper's 4-bit tap precision),
// the spectral monitor, and SNR estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "channel/awgn.h"
#include "channel/cir.h"
#include "dsp/fast_convolve.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "estimation/channel_estimator.h"
#include "estimation/snr_estimator.h"
#include "estimation/spectral_monitor.h"
#include "phy/lfsr.h"

namespace uwb::estimation {
namespace {

/// Builds a BPSK PN "preamble waveform" (one sample per chip) and passes it
/// through a known two-tap channel.
struct Sounding {
  CplxVec tmpl;
  CplxWaveform rx;
  channel::Cir truth;
};

Sounding make_sounding(double n0, Rng& rng, std::size_t delay = 12) {
  Sounding s;
  const auto chips = phy::to_chips(phy::msequence(8));  // 255 chips
  s.tmpl.reserve(chips.size());
  for (double c : chips) s.tmpl.emplace_back(c, 0.0);

  s.truth = channel::Cir({{0.0, {0.9, 0.0}}, {5e-9, {0.0, -0.45}}, {11e-9, {0.2, 0.1}}});
  const double fs = 1e9;
  CplxWaveform clean(CplxVec(s.tmpl.size() + 64, cplx{}), fs);
  for (std::size_t i = 0; i < s.tmpl.size(); ++i) clean[delay + i] = s.tmpl[i];
  s.rx = CplxWaveform(dsp::convolve_direct(clean.samples(), s.truth.sampled(fs)), fs);
  if (n0 > 0.0) channel::add_awgn(s.rx.samples(), n0, rng);
  return s;
}

// ------------------------------------------------------ channel estimator ----

TEST(ChannelEstimator, RecoversTapsNoiseless) {
  Rng rng(1);
  const Sounding s = make_sounding(0.0, rng);
  ChannelEstimatorConfig config;
  config.quantization_bits = 0;  // float reference
  config.tap_threshold_db = -20.0;
  const ChannelEstimator est(config);
  const ChannelEstimate result = est.estimate(s.rx, s.tmpl, 0);

  ASSERT_FALSE(result.cir.empty());
  EXPECT_EQ(result.reference_offset, 12u);  // strongest path location
  // Tap delays recovered at 0, 5, 11 ns.
  ASSERT_EQ(result.cir.num_taps(), 3u);
  EXPECT_NEAR(result.cir.taps()[0].delay_s, 0.0, 1e-12);
  EXPECT_NEAR(result.cir.taps()[1].delay_s, 5e-9, 1e-12);
  EXPECT_NEAR(result.cir.taps()[2].delay_s, 11e-9, 1e-12);
  // Gains proportional to the truth (overall scale = peak magnitude).
  const double ratio = std::abs(result.cir.taps()[1].gain) / std::abs(result.cir.taps()[0].gain);
  EXPECT_NEAR(ratio, 0.5, 0.05);
}

TEST(ChannelEstimator, QuantizationLimitsPrecision) {
  Rng rng(2);
  const Sounding s = make_sounding(0.0, rng);
  ChannelEstimatorConfig fine;
  fine.quantization_bits = 0;
  ChannelEstimatorConfig coarse;
  coarse.quantization_bits = 2;
  const ChannelEstimate f = ChannelEstimator(fine).estimate(s.rx, s.tmpl, 0);
  const ChannelEstimate c = ChannelEstimator(coarse).estimate(s.rx, s.tmpl, 0);
  // Coarse taps take at most 2^2 distinct magnitudes per rail; quantization
  // error vs the float estimate must be visible but bounded by one step.
  ASSERT_FALSE(c.cir.empty());
  const double step = 2.0 / (1 << 2);
  for (std::size_t i = 0; i < std::min(c.cir.num_taps(), f.cir.num_taps()); ++i) {
    const double err =
        std::abs(c.cir.taps()[i].gain - f.cir.taps()[i].gain) / f.peak_magnitude;
    EXPECT_LE(err, step) << "tap " << i;
  }
}

TEST(ChannelEstimator, FourBitTapsCloseToFloat) {
  // The paper's operating point: 4-bit taps should track the float
  // estimate within a half step of the 4-bit grid.
  Rng rng(3);
  const Sounding s = make_sounding(1e-2, rng);
  ChannelEstimatorConfig four;
  four.quantization_bits = 4;
  const ChannelEstimate q = ChannelEstimator(four).estimate(s.rx, s.tmpl, 0);
  ChannelEstimatorConfig flt;
  flt.quantization_bits = 0;
  const ChannelEstimate f = ChannelEstimator(flt).estimate(s.rx, s.tmpl, 0);
  ASSERT_GE(q.cir.num_taps(), 2u);
  // Per-component error <= step/2, except a full-scale +1 component which
  // clamps to the top two's-complement level (1 - step): allow one step
  // plus the complex combination margin.
  const double step = 2.0 / (1 << 4);
  const double rel_err =
      std::abs(q.cir.taps()[0].gain - f.cir.taps()[0].gain) / f.peak_magnitude;
  EXPECT_LE(rel_err, 1.2 * step);
}

TEST(ChannelEstimator, QuantizeTapGrid) {
  ChannelEstimatorConfig config;
  config.quantization_bits = 3;  // 8 levels, step 0.25 over [-1, 1]
  const ChannelEstimator est(config);
  const cplx q = est.quantize_tap({0.3, -0.6}, 1.0);
  EXPECT_NEAR(q.real(), 0.25, 1e-12);
  EXPECT_NEAR(q.imag(), -0.5, 1e-12);
  // Zero-bit config = pass-through.
  ChannelEstimatorConfig raw;
  raw.quantization_bits = 0;
  EXPECT_EQ(ChannelEstimator(raw).quantize_tap({0.3, -0.6}, 1.0), (cplx{0.3, -0.6}));
}

TEST(ChannelEstimator, MaxTapsCap) {
  Rng rng(4);
  const Sounding s = make_sounding(0.0, rng);
  ChannelEstimatorConfig config;
  config.max_taps = 1;
  const ChannelEstimate result = ChannelEstimator(config).estimate(s.rx, s.tmpl, 0);
  EXPECT_EQ(result.cir.num_taps(), 1u);
}

TEST(ChannelEstimator, SurvivesNoise) {
  Rng rng(5);
  const Sounding s = make_sounding(0.5, rng);  // noisy sounding
  ChannelEstimatorConfig config;
  config.quantization_bits = 4;
  config.tap_threshold_db = -12.0;
  const ChannelEstimate result = ChannelEstimator(config).estimate(s.rx, s.tmpl, 0);
  ASSERT_FALSE(result.cir.empty());
  // The strongest path must still be found at the right place.
  EXPECT_NEAR(static_cast<double>(result.reference_offset), 12.0, 1.0);
}

// -------------------------------------------------------- spectral monitor ----

TEST(SpectralMonitor, DetectsStrongTone) {
  Rng rng(6);
  const double fs = 1e9;
  CplxVec x(8192);
  for (auto& v : x) v = rng.cgaussian(1.0);  // broadband "UWB-like" floor
  // Power 20: 13 dB above the floor.
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += std::polar(std::sqrt(20.0), two_pi * 137e6 * static_cast<double>(i) / fs);
  }

  SpectralMonitorConfig config;
  config.fft_size = 1024;
  config.detect_threshold_db = 10.0;
  const SpectralMonitor monitor(config);
  const InterfererReport report = monitor.analyze(CplxWaveform(x, fs));
  EXPECT_TRUE(report.detected);
  EXPECT_NEAR(report.frequency_hz, 137e6, 2.0 * fs / 1024.0);
}

TEST(SpectralMonitor, FrequencyAccuracySubBin) {
  const double fs = 1e9;
  // Tone between bins: 100.37 MHz with 1024-point FFT (bin ~0.977 MHz).
  const double f0 = 100.37e6;
  CplxVec x(8192);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::polar(3.0, two_pi * f0 * static_cast<double>(i) / fs);
  }
  Rng rng(7);
  channel::add_awgn(x, 0.01, rng);
  const SpectralMonitor monitor(SpectralMonitorConfig{});
  const InterfererReport report = monitor.analyze(CplxWaveform(x, fs));
  ASSERT_TRUE(report.detected);
  EXPECT_NEAR(report.frequency_hz, f0, 0.3e6);  // sub-bin via interpolation
}

TEST(SpectralMonitor, QuietOnFlatSpectrum) {
  Rng rng(8);
  CplxVec x(8192);
  for (auto& v : x) v = rng.cgaussian(1.0);
  const SpectralMonitor monitor(SpectralMonitorConfig{});
  const InterfererReport report = monitor.analyze(CplxWaveform(x, 1e9));
  EXPECT_FALSE(report.detected);
}

TEST(SpectralMonitor, NegativeFrequencyInterferer) {
  Rng rng(9);
  const double fs = 1e9;
  CplxVec x(8192);
  for (auto& v : x) v = rng.cgaussian(0.5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += std::polar(4.0, two_pi * (-220e6) * static_cast<double>(i) / fs);
  }
  const SpectralMonitor monitor(SpectralMonitorConfig{});
  const InterfererReport report = monitor.analyze(CplxWaveform(x, fs));
  ASSERT_TRUE(report.detected);
  EXPECT_NEAR(report.frequency_hz, -220e6, 2e6);
}

TEST(SpectralMonitor, RejectsShortCapture) {
  const SpectralMonitor monitor(SpectralMonitorConfig{});
  EXPECT_THROW((void)monitor.analyze(CplxWaveform(CplxVec(100), 1e9)), Error);
}

// ---------------------------------------------------------- snr estimator ----

TEST(SnrEstimator, DataAidedAccuracy) {
  Rng rng(10);
  for (double snr_db : {0.0, 6.0, 12.0}) {
    const double snr = from_db(snr_db);
    const double sigma = std::sqrt(1.0 / snr);
    std::vector<double> soft(20000);
    for (auto& v : soft) v = 1.0 + rng.gaussian(0.0, sigma);
    const double est_db = to_db(snr_data_aided(soft));
    EXPECT_NEAR(est_db, snr_db, 0.5) << "snr=" << snr_db;
  }
}

}  // namespace
}  // namespace uwb::estimation
