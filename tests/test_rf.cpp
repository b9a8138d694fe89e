// Tests for the RF behavioral models: LNA, mixers, synthesizer, notch,
// AGC, cascaded front end.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/nco.h"
#include "dsp/power_spectrum.h"
#include "rf/agc.h"
#include "rf/front_end.h"
#include "rf/lna.h"
#include "rf/mixer.h"
#include "rf/notch_filter.h"
#include "rf/synthesizer.h"

namespace uwb::rf {
namespace {

// ------------------------------------------------------------------ lna ----

TEST(Lna, SmallSignalGain) {
  LnaParams params;
  params.gain_db = 15.0;
  params.noise_figure_db = 0.0;  // noiseless for this check
  const Lna lna(params);
  Rng rng(1);
  RealWaveform x(RealVec(1000, 1e-4), 1e9);  // far below compression
  lna.process(x, 0.0, rng);
  EXPECT_NEAR(amp_to_db(x[500] / 1e-4), 15.0, 0.05);
}

TEST(Lna, CompressesSignalPeaksAboveHeadroom) {
  LnaParams params;
  params.gain_db = 20.0;
  params.noise_figure_db = 0.0;
  params.headroom_db = 20.0;
  const Lna lna(params);
  Rng rng(2);
  // Mostly unit samples plus outliers far above the headroom: the outliers
  // must be soft-limited near the saturation level while the unit samples
  // stay essentially linear.
  RealVec samples(1000, 1.0);
  for (std::size_t i = 0; i < 10; ++i) samples[i * 100] = 1000.0;
  RealWaveform x(samples, 1e9);
  const double rms = std::sqrt(mean_power(samples));
  const double sat = lna.saturation_amplitude(rms);
  lna.process(x, 0.0, rng);
  EXPECT_LT(x[0], sat * lna.gain_linear() * 1.01);          // outlier clamped
  EXPECT_NEAR(x[1], 1.0 * lna.gain_linear(), 0.05 * lna.gain_linear());  // linear
}

TEST(Lna, ExcessNoiseMatchesNoiseFigure) {
  LnaParams params;
  params.gain_db = 0.0;  // unit gain isolates the added noise
  params.noise_figure_db = 3.0102;  // F = 2 -> adds as much noise as present
  const Lna lna(params);
  Rng rng(3);
  CplxWaveform x(CplxVec(200000, cplx{}), 1e9);
  // Reference noise small enough to stay in the linear region of the
  // compression model: expect (F-1) * N_in added to silence.
  const double n_in = 1e-6;
  lna.process(x, n_in, rng);
  EXPECT_NEAR(x.power(), n_in, 0.05 * n_in);
}

/// Units in the last place between two positive finite doubles.
std::int64_t ulp_distance(double a, double b) {
  return std::abs(std::bit_cast<std::int64_t>(a) - std::bit_cast<std::int64_t>(b));
}

TEST(Lna, SoftClipGainWithinTwoUlp) {
  // The limiter gain sat * tanh(|x| / sat) / |x| for |x| / sat in [0, 20]
  // at any phase. Below |x| = sat / 3 the polynomial must sit within 2 ulp
  // of the exact value (taken in extended precision -- the double closed
  // form itself strays up to ~4 ulp there); above it the gain is that
  // closed form, unchanged.
  const double sat = 1.7;
  Rng rng(21);
  std::int64_t worst = 0;
  std::size_t small = 0;
  for (int k = 0; k <= 400'000; ++k) {
    const double r = 20.0 * k / 400'000.0;
    const double phase = rng.uniform(0.0, two_pi);
    const double re = r * sat * std::cos(phase);
    const double im = r * sat * std::sin(phase);
    const double got = soft_clip_gain(re, im, sat);
    if ((re * re + im * im) * (1.0 / (sat * sat)) < 1.0 / 9.0) {
      const long double mag = std::sqrt(static_cast<long double>(re) * re +
                                        static_cast<long double>(im) * im);
      const long double exact =
          mag == 0.0L ? 1.0L : std::tanh(mag / sat) * static_cast<long double>(sat) / mag;
      worst = std::max(worst, ulp_distance(got, static_cast<double>(exact)));
      ++small;
    } else {
      const double mag = std::abs(cplx(re, im));
      ASSERT_EQ(got, sat * std::tanh(mag / sat) / mag) << "r=" << r;
    }
  }
  EXPECT_GT(small, 1000u);
  EXPECT_LE(worst, 2);
}

TEST(Lna, ComplexLimiterAppliesSoftClipGainPerSample) {
  // The in-place rail kernel (polynomial pass plus exact fix-up of large
  // samples) must equal x * soft_clip_gain(x) * gain sample by sample,
  // with samples on both sides of the small-signal boundary.
  LnaParams params;
  params.gain_db = 15.0;
  params.noise_figure_db = 0.0;
  params.headroom_db = 6.0;  // low headroom: many samples past |x| = sat/3
  const Lna lna(params);
  Rng rng(22);
  CplxVec samples(3000);
  for (cplx& v : samples) v = rng.cgaussian();
  double acc = 0.0;
  for (const cplx& v : samples) acc += std::norm(v);
  const double sat = lna.saturation_amplitude(std::sqrt(acc / samples.size()));
  CplxWaveform x(samples, 1e9);
  lna.process(x, 0.0, rng);
  std::size_t large = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double re = samples[k].real();
    const double im = samples[k].imag();
    if (std::norm(samples[k]) / (sat * sat) >= 1.0 / 9.0) ++large;
    const double g = soft_clip_gain(re, im, sat);
    ASSERT_EQ(x[k].real(), re * g * lna.gain_linear()) << "sample " << k;
    ASSERT_EQ(x[k].imag(), im * g * lna.gain_linear()) << "sample " << k;
  }
  EXPECT_GT(large, 100u);
  EXPECT_LT(large, samples.size() - 100);
}

// ---------------------------------------------------------------- mixer ----

TEST(Mixer, UpDownRoundTrip) {
  // Upconvert a smooth complex baseband, downconvert, compare (transient
  // edges excluded).
  const double fs = 20e9;
  const double fc = 4e9;
  const std::size_t n = 4096;
  CplxVec bb(n);
  for (std::size_t i = 0; i < n; ++i) {
    bb[i] = std::polar(1.0, two_pi * 50e6 * static_cast<double>(i) / fs);
  }
  const Upconverter up(fc, fs);
  const Downconverter down(fc, 500e6, fs);
  const CplxWaveform back = down.process(up.process(CplxWaveform(bb, fs)));
  double max_err = 0.0;
  for (std::size_t i = 200; i < n - 200; ++i) {
    max_err = std::max(max_err, std::abs(back[i] - bb[i]));
  }
  EXPECT_LT(max_err, 0.05);
}

TEST(Mixer, ImageRejectionDependsOnImbalance) {
  IqImpairments ideal;
  EXPECT_GT(image_rejection_ratio_db(ideal), 100.0);
  IqImpairments imbalanced;
  imbalanced.gain_imbalance_db = 0.5;
  imbalanced.phase_imbalance_rad = 0.05;
  const double irr = image_rejection_ratio_db(imbalanced);
  EXPECT_GT(irr, 20.0);
  EXPECT_LT(irr, 40.0);
}

TEST(Mixer, BasebandImpairmentsCreateImage) {
  // A positive-frequency tone through an imbalanced chain leaks power at
  // the mirror frequency.
  const double fs = 1e9;
  CplxVec x(8192);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::polar(1.0, two_pi * 100e6 * static_cast<double>(i) / fs);
  }
  IqImpairments imp;
  imp.gain_imbalance_db = 1.0;
  imp.phase_imbalance_rad = 0.1;
  const CplxWaveform y = apply_iq_impairments(CplxWaveform(x, fs), imp);
  const dsp::Psd psd = dsp::welch_psd(y, 1024);
  const double signal = psd.density_w_per_hz[psd.bin_of(100e6)];
  const double image = psd.density_w_per_hz[psd.bin_of(-100e6)];
  const double measured_irr = to_db(signal / image);
  EXPECT_NEAR(measured_irr, image_rejection_ratio_db(imp), 2.0);
}

TEST(Mixer, DcOffsetShowsAtZero) {
  const double fs = 1e9;
  IqImpairments imp;
  imp.dc_offset_i = 0.1;
  const CplxWaveform y =
      apply_iq_impairments(CplxWaveform(CplxVec(1024, cplx{}), fs), imp);
  EXPECT_NEAR(y[100].real(), 0.1, 1e-12);
}

// ------------------------------------------------------------ synthesizer ----

TEST(Synthesizer, TuneAndSettle) {
  const pulse::BandPlan plan;
  SynthesizerParams params;
  params.settle_time_s = 2e-6;
  Synthesizer synth(plan, params);
  EXPECT_EQ(synth.channel(), 0);
  EXPECT_DOUBLE_EQ(synth.tune(5), 2e-6);
  EXPECT_EQ(synth.channel(), 5);
  EXPECT_DOUBLE_EQ(synth.tune(5), 0.0);  // already there
  EXPECT_NEAR(synth.frequency(), plan.center_frequency(5), 1.0);
  EXPECT_THROW(synth.tune(14), InvalidArgument);
}

TEST(Synthesizer, PhaseNoiseRms) {
  const pulse::BandPlan plan;
  SynthesizerParams params;
  params.phase_noise_rms_rad = 0.05;
  params.loop_bandwidth_hz = 1e6;
  Synthesizer synth(plan, params);
  Rng rng(4);
  const RealVec theta = synth.phase_noise(500000, 1e9, rng);
  double acc = 0.0;
  for (double t : theta) acc += t * t;
  EXPECT_NEAR(std::sqrt(acc / theta.size()), 0.05, 0.01);
}

TEST(Synthesizer, ZeroPhaseNoiseIsTransparent) {
  const pulse::BandPlan plan;
  Synthesizer synth(plan, SynthesizerParams{});
  Rng rng(5);
  CplxVec x(100, cplx{1.0, 0.0});
  synth.apply_phase_noise(x, 1e9, rng);
  for (const auto& v : x) EXPECT_EQ(v, (cplx{1.0, 0.0}));
}

// ---------------------------------------------------------------- notch ----

TEST(ComplexNotch, KillsTargetToneOnly) {
  const double fs = 1e9;
  ComplexNotch notch(120e6, fs, 0.98);
  // Tone at the notch frequency.
  dsp::Nco jam(120e6, fs);
  dsp::Nco want(-200e6, fs);
  CplxVec mixed(20000);
  for (auto& v : mixed) v = jam.step() + want.step();
  const CplxWaveform out = notch.process(CplxWaveform(mixed, fs));
  const dsp::Psd psd = dsp::welch_psd(out, 1024);
  const double jam_level = psd.density_w_per_hz[psd.bin_of(120e6)];
  const double want_level = psd.density_w_per_hz[psd.bin_of(-200e6)];
  EXPECT_GT(to_db(want_level / std::max(jam_level, 1e-300)), 25.0);
}

TEST(ComplexNotch, ResponseAnalytic) {
  ComplexNotch notch(50e6, 1e9, 0.95);
  EXPECT_LT(std::abs(notch.response_at(50e6)), 1e-9);
  EXPECT_NEAR(std::abs(notch.response_at(-400e6)), 1.0, 0.1);
  EXPECT_GT(notch.bandwidth_3db_hz(), 1e6);
}

TEST(ComplexNotch, TuneMoves) {
  ComplexNotch notch(50e6, 1e9);
  notch.tune(-80e6);
  EXPECT_LT(std::abs(notch.response_at(-80e6)), 1e-9);
  EXPECT_THROW(notch.tune(600e6), InvalidArgument);
}

TEST(RealNotch, SuppressesBothSidebands) {
  const double fs = 2e9;
  RealNotch notch(300e6, 10.0, fs);
  RealVec x(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(two_pi * 300e6 * static_cast<double>(i) / fs);
  }
  const RealWaveform out = notch.process(RealWaveform(x, fs));
  // Post-transient power strongly reduced.
  double tail_power = 0.0;
  for (std::size_t i = 10000; i < out.size(); ++i) tail_power += out[i] * out[i];
  tail_power /= 10000.0;
  EXPECT_LT(tail_power, 0.01);
}

// ------------------------------------------------------------------ agc ----

TEST(Agc, OneShotHitsTarget) {
  AgcParams params;
  params.target_rms = 0.25;
  Agc agc(params);
  Rng rng(6);
  CplxVec x(10000);
  for (auto& v : x) v = rng.cgaussian(4.0);  // rms 2
  const CplxWaveform y = agc.one_shot(CplxWaveform(x, 1e9));
  EXPECT_NEAR(std::sqrt(y.power()), 0.25, 0.01);
  EXPECT_NEAR(agc.gain_db(), amp_to_db(0.25 / 2.0), 0.2);
}

TEST(Agc, RespectsGainLimits) {
  AgcParams params;
  params.target_rms = 0.25;
  params.max_gain_db = 10.0;
  Agc agc(params);
  CplxVec x(100, cplx{1e-6, 0.0});  // needs ~108 dB of gain
  const CplxWaveform y = agc.one_shot(CplxWaveform(x, 1e9));
  EXPECT_NEAR(agc.gain_db(), 10.0, 1e-9);
  EXPECT_LT(std::sqrt(y.power()), 0.25);
}

TEST(Agc, TrackingConverges) {
  AgcParams params;
  params.target_rms = 0.25;
  params.window = 128;
  params.step_db = 1.0;
  Agc agc(params);
  Rng rng(7);
  CplxVec x(60000);
  for (auto& v : x) v = rng.cgaussian(1.0);
  const CplxWaveform y = agc.track(CplxWaveform(x, 1e9));
  // Final quarter of the buffer should sit near the target.
  double acc = 0.0;
  for (std::size_t i = 45000; i < 60000; ++i) acc += std::norm(y[i]);
  EXPECT_NEAR(std::sqrt(acc / 15000.0), 0.25, 0.05);
}

// ------------------------------------------------------------- front end ----

TEST(FrontEnd, FriisCascade) {
  // Textbook: 15 dB gain / 3 dB NF LNA followed by a 10 dB NF mixer:
  // F = 2 + (10 - 1)/31.6 = 2.28 -> 3.59 dB.
  const double nf = cascade_noise_figure_db({{"lna", 15.0, 3.0}, {"mixer", 0.0, 10.0}});
  EXPECT_NEAR(nf, 3.59, 0.05);
}

TEST(FrontEnd, FirstStageDominates) {
  const double good_first =
      cascade_noise_figure_db({{"lna", 20.0, 2.0}, {"vga", 10.0, 15.0}});
  const double bad_first =
      cascade_noise_figure_db({{"vga", 10.0, 15.0}, {"lna", 20.0, 2.0}});
  EXPECT_LT(good_first, bad_first - 8.0);
}

TEST(FrontEnd, BasebandPathPreservesSignalShape) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = true;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  Rng rng(8);
  // A clean tone should come through (scaled by AGC) without distortion.
  dsp::Nco tone(30e6, 1e9);
  CplxVec x = tone.generate(4096);
  for (auto& v : x) v *= 1e-3;
  const CplxWaveform y = fe.process_baseband(CplxWaveform(x, 1e9), 0.0, rng);
  EXPECT_NEAR(std::sqrt(y.power()), params.agc.target_rms, 0.02);
}

TEST(FrontEnd, NotchIntegration) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = false;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  fe.set_notch(100e6, 1e9);
  EXPECT_TRUE(fe.notch_enabled());
  Rng rng(9);
  dsp::Nco jam(100e6, 1e9);
  CplxVec x = jam.generate(20000);
  const CplxWaveform y = fe.process_baseband(CplxWaveform(x, 1e9), 0.0, rng);
  // Steady-state jam power crushed.
  double tail = 0.0;
  for (std::size_t i = 10000; i < y.size(); ++i) tail += std::norm(y[i]);
  EXPECT_LT(tail / 10000.0, 0.05);
  fe.clear_notch();
  EXPECT_FALSE(fe.notch_enabled());
}

TEST(FrontEnd, TuneDelegatesToSynthesizer) {
  const pulse::BandPlan plan;
  FrontEnd fe(FrontEndParams{}, plan);
  EXPECT_GT(fe.tune(3), 0.0);
  EXPECT_EQ(fe.channel(), 3);
  EXPECT_GT(fe.system_noise_figure_db(), 3.0);
  EXPECT_LT(fe.system_noise_figure_db(), 12.0);
}

}  // namespace
}  // namespace uwb::rf
