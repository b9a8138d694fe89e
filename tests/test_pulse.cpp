// Tests for pulse shapes, the 14-channel band plan, pulse trains and the
// FCC mask machinery.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/power_spectrum.h"
#include "pulse/band_plan.h"
#include "pulse/pulse_shape.h"
#include "pulse/pulse_train.h"
#include "pulse/spectral_mask.h"

namespace uwb::pulse {
namespace {

// --------------------------------------------------------------- shapes ----

TEST(PulseShape, GaussianPeakAndSymmetry) {
  const RealWaveform p = gaussian_pulse(0.5e-9, 20e9);
  EXPECT_NEAR(peak_abs(p.samples()), 1.0, 1e-12);
  const std::size_t n = p.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(p[i], p[n - 1 - i], 1e-9);
  }
}

TEST(PulseShape, MonocycleIsOddAndZeroMean) {
  const RealWaveform p = gaussian_monocycle(0.5e-9, 20e9);
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sum += p[i];
  EXPECT_NEAR(sum / p.size(), 0.0, 1e-6);  // no DC -- it must radiate
  // Odd symmetry about the center.
  const std::size_t n = p.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(p[i], -p[n - 1 - i], 1e-9);
  }
}

TEST(PulseShape, DoubletHasZeroMeanToo) {
  const RealWaveform p = gaussian_doublet(0.5e-9, 20e9);
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sum += p[i];
  EXPECT_NEAR(sum / p.size(), 0.0, 1e-4);
}

TEST(PulseShape, GaussianBandwidthMapping) {
  // Build a Gaussian for 500 MHz and verify the -10 dB bandwidth via PSD.
  const double fs = 8e9;
  PulseSpec spec;
  spec.shape = PulseShape::kGaussian;
  spec.bandwidth_hz = 500e6;
  spec.sample_rate_hz = fs;
  RealWaveform p = make_pulse(spec);
  // Random-polarity train: continuous spectrum shaped by |P(f)|^2.
  Rng rng(21);
  RealWaveform train(16384, fs);
  for (std::size_t start = 0; start + p.size() < train.size(); start += 512) {
    RealWaveform copy = p;
    copy.scale(rng.sign());
    train.add(copy, start);
  }
  const dsp::Psd psd = dsp::welch_psd(train, 2048);
  // The baseband Gaussian is centered at DC; the one-sided PSD shows the
  // upper half of the two-sided 500 MHz target.
  const double bw = dsp::bandwidth_at_level(psd, -10.0);
  EXPECT_NEAR(bw, 250e6, 100e6);
}

TEST(PulseShape, RrcPulse500MHz) {
  const RealWaveform p = rrc_pulse(500e6, 0.5, 4, 4e9);
  EXPECT_NEAR(peak_abs(p.samples()), 1.0, 1e-12);
  // Duration at the 1% level should be a handful of ns for a 500 MHz pulse.
  const double dur = pulse_duration(p, 0.01);
  EXPECT_GT(dur, 2e-9);
  EXPECT_LT(dur, 30e-9);
}

TEST(PulseShape, Duration) {
  const RealWaveform rect = rectangular_pulse(2e-9, 4e9);
  EXPECT_EQ(rect.size(), 8u);
  EXPECT_NEAR(pulse_duration(rect, 0.5), 7.0 / 4e9, 1e-12);
}

TEST(PulseShape, RejectsBadArguments) {
  EXPECT_THROW(gaussian_pulse(-1.0, 1e9), InvalidArgument);
  EXPECT_THROW(rrc_pulse(500e6, 0.5, 4, 600e6), InvalidArgument);  // fs too low
  EXPECT_THROW(pulse_duration(gaussian_pulse(1e-9, 1e10), 1.5), InvalidArgument);
}

// ------------------------------------------------------------- band plan ----

TEST(BandPlan, FourteenChannelsInsideFcc) {
  const BandPlan plan;
  EXPECT_EQ(plan.num_channels(), 14u);
  for (int k = 0; k < static_cast<int>(plan.num_channels()); ++k) {
    EXPECT_GE(plan.channel(k).low_hz, fcc_band_low_hz - 1.0) << "channel " << k;
    EXPECT_LE(plan.channel(k).high_hz, fcc_band_high_hz + 1.0) << "channel " << k;
  }
  EXPECT_NEAR(plan.channel(0).low_hz, fcc_band_low_hz, 1.0);
  EXPECT_NEAR(plan.channel(13).high_hz, fcc_band_high_hz, 1.0);
}

TEST(BandPlan, ChannelsAreOrderedAndUniform) {
  const BandPlan plan;
  const double spacing =
      plan.channel(1).center_hz - plan.channel(0).center_hz;
  for (int i = 1; i < 14; ++i) {
    EXPECT_GT(plan.channel(i).center_hz, plan.channel(i - 1).center_hz);
    EXPECT_NEAR(plan.channel(i).center_hz - plan.channel(i - 1).center_hz, spacing, 1.0);
  }
  EXPECT_NEAR(plan.channel_bandwidth(), 500e6, 1.0);
}

TEST(BandPlan, Fig4ChannelNearFiveGHz) {
  // Fig. 4 shows a 500 MHz pulse on a 5 GHz carrier; the plan must have a
  // channel close to that.
  const BandPlan plan;
  const int ch = plan.nearest_channel(5e9);
  EXPECT_NEAR(plan.center_frequency(ch), 5e9, 300e6);
}

TEST(BandPlan, FrequencyLookup) {
  const BandPlan plan;
  EXPECT_EQ(plan.nearest_channel(plan.channel(7).center_hz), 7);
  EXPECT_EQ(plan.nearest_channel(plan.channel(7).center_hz + 0.4 * plan.channel_bandwidth()), 7);
  EXPECT_THROW((void)plan.channel(14), InvalidArgument);
  EXPECT_THROW((void)plan.channel(-1), InvalidArgument);
}

// ----------------------------------------------------------- pulse train ----

TEST(PulseTrain, FrameSpacing) {
  PulseTrainSpec spec;
  spec.prf_hz = 100e6;
  spec.sample_rate_hz = 2e9;
  EXPECT_EQ(samples_per_frame(spec), 20u);
  spec.prf_hz = 3e8;  // does not divide 2 GHz
  EXPECT_THROW(samples_per_frame(spec), InvalidArgument);
}

// ------------------------------------------------------------- FCC mask ----

TEST(SpectralMask, SegmentsAndLookup) {
  const auto mask = fcc_indoor_mask();
  EXPECT_NEAR(mask_limit_at(mask, 5e9), -41.3, 1e-9);
  EXPECT_NEAR(mask_limit_at(mask, 1.2e9), -75.3, 1e-9);  // GPS band is strictest
  EXPECT_NEAR(mask_limit_at(mask, 2.5e9), -51.3, 1e-9);
  EXPECT_NEAR(mask_limit_at(mask, 12e9), -51.3, 1e-9);
}

TEST(SpectralMask, CompliantInBandSignalPasses) {
  // A weak in-band tone at 5 GHz: far below -41.3 dBm/MHz everywhere.
  const double fs = 40e9;
  RealVec x(1 << 15);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1e-6 * std::cos(two_pi * 5e9 * static_cast<double>(i) / fs);
  }
  const dsp::Psd psd = dsp::welch_psd(RealWaveform(x, fs), 4096);
  const MaskReport report = check_mask(psd, fcc_indoor_mask());
  EXPECT_TRUE(report.compliant);
  EXPECT_GT(report.worst_margin_db, 0.0);
}

TEST(SpectralMask, StrongSignalViolatesAndScalesBack) {
  const double fs = 40e9;
  RealVec x(1 << 15);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 10.0 * std::cos(two_pi * 5e9 * static_cast<double>(i) / fs);
  }
  const dsp::Psd psd = dsp::welch_psd(RealWaveform(x, fs), 4096);
  const MaskReport report = check_mask(psd, fcc_indoor_mask());
  EXPECT_FALSE(report.compliant);
  const double scale = max_power_scale(psd, fcc_indoor_mask());
  EXPECT_LT(scale, 1.0);
  EXPECT_GT(scale, 0.0);
  // After scaling, the worst margin is ~0 by construction.
  dsp::Psd scaled = psd;
  for (auto& d : scaled.density_w_per_hz) d *= scale;
  EXPECT_NEAR(check_mask(scaled, fcc_indoor_mask()).worst_margin_db, 0.0, 0.01);
}

}  // namespace
}  // namespace uwb::pulse
