// Tests for the RF behavioral models: LNA, mixer impairments, synthesizer,
// notch, AGC, composed front end.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/power_spectrum.h"
#include "rf/agc.h"
#include "rf/front_end.h"
#include "rf/lna.h"
#include "rf/mixer.h"
#include "rf/notch_filter.h"
#include "rf/synthesizer.h"

namespace uwb::rf {
namespace {

/// \p n samples of the unit complex tone exp(j 2 pi freq n / fs).
CplxVec tone(double freq_hz, double fs, std::size_t n) {
  CplxVec out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::polar(1.0, two_pi * freq_hz * static_cast<double>(i) / fs);
  }
  return out;
}

/// A complex signal as the split I/Q rails the receive chain runs on.
struct Rails {
  explicit Rails(const CplxVec& x) : i(x.size()), q(x.size()) {
    for (std::size_t k = 0; k < x.size(); ++k) {
      i[k] = x[k].real();
      q[k] = x[k].imag();
    }
  }
  [[nodiscard]] std::size_t size() const noexcept { return i.size(); }
  [[nodiscard]] cplx operator[](std::size_t k) const { return {i[k], q[k]}; }
  [[nodiscard]] double power() const {
    double acc = 0.0;
    for (std::size_t k = 0; k < size(); ++k) acc += i[k] * i[k] + q[k] * q[k];
    return acc / static_cast<double>(size());
  }
  [[nodiscard]] CplxWaveform waveform(double fs) const {
    CplxVec x(size());
    for (std::size_t k = 0; k < size(); ++k) x[k] = (*this)[k];
    return CplxWaveform(std::move(x), fs);
  }
  RealVec i, q;
};

// ------------------------------------------------------------------ lna ----

TEST(Lna, SmallSignalGain) {
  LnaParams params;
  params.gain_db = 15.0;
  params.noise_figure_db = 0.0;  // noiseless for this check
  const Lna lna(params);
  Rng rng(1);
  Rails x(CplxVec(1000, cplx{1e-4, 0.0}));  // far below compression
  lna.process_iq(x.i.data(), x.q.data(), x.size(), 0.0, rng);
  EXPECT_NEAR(amp_to_db(x.i[500] / 1e-4), 15.0, 0.05);
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
  CplxVec samples(1000, cplx{1.0, 0.0});
  for (std::size_t i = 0; i < 10; ++i) samples[i * 100] = 1000.0;
  Rails x(samples);
  const double rms = std::sqrt(x.power());
  const double sat = lna.saturation_amplitude(rms);
  lna.process_iq(x.i.data(), x.q.data(), x.size(), 0.0, rng);
  EXPECT_LT(x.i[0], sat * lna.gain_linear() * 1.01);          // outlier clamped
  EXPECT_NEAR(x.i[1], 1.0 * lna.gain_linear(), 0.05 * lna.gain_linear());  // linear
}

TEST(Lna, ExcessNoiseMatchesNoiseFigure) {
  LnaParams params;
  params.gain_db = 0.0;  // unit gain isolates the added noise
  params.noise_figure_db = 3.0102;  // F = 2 -> adds as much noise as present
  const Lna lna(params);
  Rng rng(3);
  Rails x(CplxVec(200000, cplx{}));
  // Reference noise small enough to stay in the linear region of the
  // compression model: expect (F-1) * N_in added to silence.
  const double n_in = 1e-6;
  lna.process_iq(x.i.data(), x.q.data(), x.size(), n_in, rng);
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
  Rails x(samples);
  lna.process_iq(x.i.data(), x.q.data(), x.size(), 0.0, rng);
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
  // y = a x + b conj(x): the image sits |b|^2 / |a|^2 below the tone, with
  // a = (gi + gq e^{-j phi}) / 2, b = (gi - gq e^{+j phi}) / 2.
  const double gi = db_to_amp(imp.gain_imbalance_db / 2.0);
  const double gq = 1.0 / gi;
  const double a = std::abs(0.5 * (gi + gq * std::polar(1.0, -imp.phase_imbalance_rad)));
  const double b = std::abs(0.5 * (gi - gq * std::polar(1.0, imp.phase_imbalance_rad)));
  EXPECT_NEAR(to_db(signal / image), 20.0 * std::log10(a / b), 2.0);
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
  const CplxVec jam = tone(120e6, fs, 20000);
  const CplxVec want = tone(-200e6, fs, 20000);
  CplxVec mixed(20000);
  for (std::size_t i = 0; i < mixed.size(); ++i) mixed[i] = jam[i] + want[i];
  Rails out(mixed);
  notch.process(out.i.data(), out.q.data(), out.size());
  const dsp::Psd psd = dsp::welch_psd(out.waveform(fs), 1024);
  const double jam_level = psd.density_w_per_hz[psd.bin_of(120e6)];
  const double want_level = psd.density_w_per_hz[psd.bin_of(-200e6)];
  EXPECT_GT(to_db(want_level / std::max(jam_level, 1e-300)), 25.0);
}

TEST(ComplexNotch, SteadyStateFollowsTheAnalyticResponse) {
  // Past the pole's transient (r^n), a tone leaves the recurrence scaled by
  // H at its frequency: zero at f0, ~unity far away.
  const double fs = 1e9;
  ComplexNotch notch(50e6, fs, 0.95);
  EXPECT_LT(std::abs(notch.response_at(50e6)), 1e-9);
  EXPECT_NEAR(std::abs(notch.response_at(-400e6)), 1.0, 0.1);
  for (const double f : {50e6, 55e6, -80e6, 300e6, -400e6}) {
    notch.reset();
    const CplxVec x = tone(f, fs, 2000);
    Rails y(x);
    notch.process(y.i.data(), y.q.data(), y.size());
    const cplx h = notch.response_at(f);
    for (std::size_t k = 1000; k < x.size(); ++k) {
      ASSERT_NEAR(std::abs(y[k] - h * x[k]), 0.0, 1e-9) << f << " Hz, sample " << k;
    }
  }
}

TEST(ComplexNotch, RailProcessMatchesTheComplexRecurrenceBitForBit) {
  // The in-place rail filter runs std::complex's own products in the same
  // order as the recurrence below, so it is bit-identical (to 1e-12 only
  // where FMA contraction may fuse the two differently); split calls
  // continue from the state the previous one left.
  const double fs = 4e9;
  const double r = 0.98;
  const double f0 = -137e6;
  Rng rng(23);
  CplxVec x(1001);
  for (cplx& v : x) v = rng.cgaussian();
  const cplx rot = std::polar(1.0, two_pi * f0 / fs);
  CplxVec want(x.size());
  cplx state{}, prev_in{};
  for (std::size_t k = 0; k < x.size(); ++k) {
    const cplx y = x[k] - rot * prev_in + r * rot * state;
    prev_in = x[k];
    state = y;
    want[k] = y;
  }
  ComplexNotch notch(f0, fs, r);
  Rails got(x);
  notch.process(got.i.data(), got.q.data(), 333);
  notch.process(got.i.data() + 333, got.q.data() + 333, got.size() - 333);
  for (std::size_t k = 0; k < x.size(); ++k) {
#ifdef __FMA__
    ASSERT_NEAR(got.i[k], want[k].real(), 1e-12) << "sample " << k;
    ASSERT_NEAR(got.q[k], want[k].imag(), 1e-12) << "sample " << k;
#else
    ASSERT_EQ(got.i[k], want[k].real()) << "sample " << k;
    ASSERT_EQ(got.q[k], want[k].imag()) << "sample " << k;
#endif
  }
}

TEST(ComplexNotch, RejectsBadConfig) {
  EXPECT_THROW(ComplexNotch(600e6, 1e9), InvalidArgument);
  EXPECT_THROW(ComplexNotch(50e6, 0.0), InvalidArgument);
  EXPECT_THROW(ComplexNotch(50e6, 1e9, 1.0), InvalidArgument);
}

// ------------------------------------------------------------------ agc ----

TEST(Agc, OneShotHitsTarget) {
  AgcParams params;
  params.target_rms = 0.25;
  Agc agc(params);
  Rng rng(6);
  CplxVec x(10000);
  for (auto& v : x) v = rng.cgaussian(4.0);  // rms 2
  Rails y(x);
  agc.one_shot(y.i.data(), y.q.data(), y.size());
  EXPECT_NEAR(std::sqrt(y.power()), 0.25, 0.01);
  EXPECT_NEAR(agc.gain_db(), amp_to_db(0.25 / 2.0), 0.2);
}

TEST(Agc, RespectsGainLimits) {
  AgcParams params;
  params.target_rms = 0.25;
  params.max_gain_db = 10.0;
  Agc agc(params);
  Rails y(CplxVec(100, cplx{1e-6, 0.0}));  // needs ~108 dB of gain
  agc.one_shot(y.i.data(), y.q.data(), y.size());
  EXPECT_NEAR(agc.gain_db(), 10.0, 1e-9);
  EXPECT_LT(std::sqrt(y.power()), 0.25);
}

// ------------------------------------------------------------- front end ----

TEST(FrontEnd, BasebandPathPreservesSignalShape) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = true;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  Rng rng(8);
  // A clean tone should come through (scaled by AGC) without distortion.
  CplxVec x = tone(30e6, 1e9, 4096);
  for (auto& v : x) v *= 1e-3;
  Rails y(x);
  fe.process_baseband(y.i.data(), y.q.data(), y.size(), 0.0, rng);
  EXPECT_NEAR(std::sqrt(y.power()), params.agc.target_rms, 0.02);
}

TEST(FrontEnd, NotchIntegration) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = false;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  fe.set_notch(100e6);
  EXPECT_TRUE(fe.notch_enabled());
  Rng rng(9);
  Rails y(tone(100e6, 1e9, 20000));
  fe.process_baseband(y.i.data(), y.q.data(), y.size(), 0.0, rng);
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
}

}  // namespace
}  // namespace uwb::rf
