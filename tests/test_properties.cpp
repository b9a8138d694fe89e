// Cross-cutting property tests: invariants that must hold over whole
// parameter families, exercised with TEST_P sweeps. These complement the
// per-module example-based tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adc/flash_adc.h"
#include "channel/awgn.h"
#include "channel/saleh_valenzuela.h"
#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/fast_convolve.h"
#include "dsp/fft.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "fec/convolutional.h"
#include "fec/viterbi_decoder.h"
#include "phy/crc.h"
#include "phy/modulation.h"
#include "phy/lfsr.h"
#include "rf/notch_filter.h"

namespace uwb {
namespace {

// ----------------------------------------------------------- FFT family ----

class FftSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeProperty, ParsevalAndRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CplxVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);

  CplxVec spec = x;
  dsp::fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8 * time_energy)
      << "Parseval violated at n=" << n;

  dsp::fft_plan(n).inverse(spec.data());
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::abs(spec[i] - x[i]));
  EXPECT_LT(err, 1e-9) << "round trip at n=" << n;
}

TEST_P(FftSizeProperty, ParsevalHoldsAcrossTheWholeFftPath) {
  // Parseval through every entry of the FFT path, not just the in-place
  // core: the complex plan on a zero-padded real input, the real plan on
  // the same input, and overlap-save convolution against a unit impulse
  // (which must preserve the signal, hence its energy, exactly up to
  // roundoff).
  const std::size_t n = GetParam();
  Rng rng(n + 2);

  // Odd-length real input zero-padded to 2n: padding adds no energy, so
  // sum |X[k]|^2 / 2n still equals the time energy.
  RealVec xr(n - 1);
  for (auto& v : xr) v = rng.gaussian();
  double real_energy = 0.0;
  for (const double v : xr) real_energy += v * v;
  CplxVec spec(2 * n);
  for (std::size_t i = 0; i < xr.size(); ++i) spec[i] = xr[i];
  dsp::fft_plan(2 * n).forward(spec.data());
  double padded_energy = 0.0;
  for (const auto& v : spec) padded_energy += std::norm(v);
  EXPECT_NEAR(padded_energy / static_cast<double>(2 * n), real_energy,
              1e-8 * real_energy)
      << "zero-padded real input at n=" << n;

  // Real plan: its half spectrum must agree with the complex transform.
  RealVec padded(2 * n, 0.0);
  std::copy(xr.begin(), xr.end(), padded.begin());
  const dsp::RfftPlan& rplan = dsp::rfft_plan(2 * n);
  CplxVec half(rplan.bins());
  rplan.forward(padded.data(), half.data());
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_LT(std::abs(half[k] - spec[k]), 1e-9);
  }

  // Overlap-save convolution with a unit impulse is the identity (plus
  // exact zeros), so the convolution path conserves energy too.
  RealVec conv;
  dsp::FftWorkspace ws;
  dsp::ols_convolve(xr, RealVec{1.0}, conv, ws);
  ASSERT_EQ(conv.size(), xr.size());
  double conv_energy = 0.0;
  for (const double v : conv) conv_energy += v * v;
  EXPECT_NEAR(conv_energy, real_energy, 1e-8 * real_energy);
}

TEST_P(FftSizeProperty, LinearityOfTransform) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  CplxVec a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.cgaussian();
    b[i] = rng.cgaussian();
    sum[i] = a[i] + 2.0 * b[i];
  }
  CplxVec fa = a, fb = b, fsum = sum;
  for (CplxVec* x : {&fa, &fb, &fsum}) dsp::fft_plan(n).forward(x->data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(fsum[i] - (fa[i] + 2.0 * fb[i])), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeProperty,
                         ::testing::Values(8u, 32u, 128u, 512u, 2048u));

// ------------------------------------------------------ filter families ----

class LowpassProperty : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LowpassProperty, UnitDcGainAndStopband) {
  const auto [cutoff_frac, taps] = GetParam();
  const double fs = 1e9;
  const double cutoff = cutoff_frac * fs;
  const RealVec h = dsp::design_lowpass(cutoff, fs, taps);
  EXPECT_NEAR(dsp::fir_gain_db_at(h, 0.0, fs), 0.0, 0.05) << "DC gain";
  // Deep into the stopband (2x cutoff, if representable).
  if (2.2 * cutoff < fs / 2.0) {
    EXPECT_LT(dsp::fir_gain_db_at(h, 2.2 * cutoff, fs), -25.0)
        << "cutoff_frac=" << cutoff_frac << " taps=" << taps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, LowpassProperty,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.2, 0.3),
                       ::testing::Values(std::size_t{31}, std::size_t{63}, std::size_t{127})));

class RrcBetaProperty : public ::testing::TestWithParam<double> {};

TEST_P(RrcBetaProperty, MatchedPairSatisfiesNyquist) {
  const double beta = GetParam();
  const int sps = 6;
  // Small roll-offs decay slowly in time; widen the span so truncation ISI
  // stays below the assertion tolerance.
  const int span = beta < 0.2 ? 16 : 8;
  const RealVec rrc = dsp::design_root_raised_cosine(1e6, beta, span, sps);
  const RealVec rc = dsp::convolve(rrc, rrc);
  const std::size_t center = (rc.size() - 1) / 2;
  EXPECT_NEAR(rc[center], 1.0, 1e-4);  // unit energy
  for (int k = 1; k <= 6; ++k) {
    EXPECT_NEAR(rc[center + static_cast<std::size_t>(k * sps)], 0.0, 2e-3)
        << "beta=" << beta << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, RrcBetaProperty, ::testing::Values(0.1, 0.25, 0.5, 0.9));

// ----------------------------------------------------- m-sequence family ----

class MSequenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(MSequenceProperty, PeriodBalanceAutocorrelation) {
  const int degree = GetParam();
  const BitVec seq = phy::msequence(degree);
  const std::size_t n = (std::size_t{1} << degree) - 1;
  ASSERT_EQ(seq.size(), n);

  // Balance: 2^(d-1) ones.
  std::size_t ones = 0;
  for (auto b : seq) ones += b;
  EXPECT_EQ(ones, (std::size_t{1} << (degree - 1)));

  // Two-valued periodic autocorrelation (spot-check a few shifts).
  const auto chips = phy::to_chips(seq);
  for (std::size_t shift : {std::size_t{1}, n / 3, n - 1}) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += chips[i] * chips[(i + shift) % n];
    EXPECT_NEAR(acc, -1.0, 1e-9) << "degree=" << degree << " shift=" << shift;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, MSequenceProperty,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));

// ------------------------------------------------------ quantizer family ----

class QuantizerBitsProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerBitsProperty, SqnrFollowsSixDbPerBit) {
  // A flash converter without comparator offsets is the ideal uniform
  // quantizer: a full-scale sine reads the 6.02 b + 1.76 dB law.
  const int bits = GetParam();
  Rng rng(static_cast<uint64_t>(bits));
  adc::FlashParams params;
  params.bits = bits;
  params.comparator_offset_sigma = 0.0;
  adc::FlashAdc q(params, rng);
  double sig = 0.0, err = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double x = std::sin(two_pi * 0.013771 * i);
    const double y = q.level_of(q.convert(x));
    sig += x * x;
    err += (y - x) * (y - x);
  }
  EXPECT_NEAR(to_db(sig / err), 6.02 * bits + 1.76, 1.2) << "bits=" << bits;
}

TEST_P(QuantizerBitsProperty, TransferMonotone) {
  const int bits = GetParam();
  Rng rng(static_cast<uint64_t>(bits));
  adc::FlashParams params;
  params.bits = bits;
  params.comparator_offset_sigma = 0.3;
  adc::FlashAdc flash(params, rng);
  int prev = flash.convert(-1.5);
  for (double x = -1.5; x <= 1.5; x += 0.002) {
    const int code = flash.convert(x);
    ASSERT_GE(code, prev);
    prev = code;
  }
}

TEST_P(QuantizerBitsProperty, InterleavedFloatBlocksCountLikeUpperBound) {
  // The single-precision block conversion against a scalar upper_bound
  // count over each lane's float-rounded ladder, at every lane phase and
  // at lengths that are and are not whole lane patterns. The lanes are
  // rebuilt by replaying the constructor's draws (checked against the
  // converter's own gains and offsets). Without mismatch, half the inputs
  // sit exactly on a threshold of the lane they hit.
  const int bits = GetParam();
  adc::FlashParams params;
  params.bits = bits;
  params.comparator_offset_sigma = 0.3;
  for (const int num_lanes : {4, 3}) {
    for (const adc::InterleaveMismatch mm :
         {adc::InterleaveMismatch{0.02, 0.01, 0.0}, adc::InterleaveMismatch{}}) {
      SCOPED_TRACE(::testing::Message() << "lanes=" << num_lanes << " gain_sigma="
                                        << mm.gain_sigma);
      const auto seed = static_cast<std::uint64_t>(100 * bits + num_lanes);
      Rng build(seed);
      Rng replay(seed);
      adc::TimeInterleavedAdc adc(num_lanes, params, mm, build);
      std::vector<adc::FlashAdc> lanes;
      std::vector<std::vector<float>> ladders;
      for (int k = 0; k < num_lanes; ++k) {
        lanes.emplace_back(params, replay);
        ASSERT_EQ(1.0 + replay.gaussian(0.0, mm.gain_sigma), adc.lane_gain(k));
        ASSERT_EQ(replay.gaussian(0.0, mm.offset_sigma * params.full_scale), adc.lane_offset(k));
        (void)replay.gaussian(0.0, mm.timing_skew_sigma_s);
        const RealVec& thr = lanes.back().thresholds();
        ladders.emplace_back(thr.begin(), thr.end());
      }
      Rng inputs(seed + 1);
      for (std::size_t phase = 0; phase < static_cast<std::size_t>(num_lanes); ++phase) {
        for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u, 203u}) {
          std::vector<float> x(n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t lane = (phase + i) % static_cast<std::size_t>(num_lanes);
            x[i] = mm.gain_sigma == 0.0 && i % 2 == 0
                       ? ladders[lane][static_cast<std::size_t>(inputs.uniform_int(
                             0, static_cast<int>(ladders[lane].size()) - 1))]
                       : static_cast<float>(inputs.uniform(-1.2, 1.2));
          }
          std::vector<float> levels(n);
          adc.seek(phase);
          adc.convert_block(x.data(), n, levels.data());
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t lane = (phase + i) % static_cast<std::size_t>(num_lanes);
            const auto k = static_cast<int>(lane);
            const float v = static_cast<float>(adc.lane_gain(k)) * x[i] +
                            static_cast<float>(adc.lane_offset(k));
            const auto code = static_cast<int>(
                std::upper_bound(ladders[lane].begin(), ladders[lane].end(), v) -
                ladders[lane].begin());
            ASSERT_EQ(levels[i], static_cast<float>(lanes[lane].level_of(code)))
                << "phase " << phase << ", n " << n << ", sample " << i;
            // Away from float rounding of any threshold, the lane's scalar
            // double converter reads the same code.
            const double vd = adc.lane_gain(k) * x[i] + adc.lane_offset(k);
            const RealVec& thr = lanes[lane].thresholds();
            const bool clear = std::all_of(thr.begin(), thr.end(), [vd](double t) {
              return std::abs(t - vd) > 1e-5;
            });
            if (clear) {
              ASSERT_EQ(code, lanes[lane].convert(vd))
                  << "phase " << phase << ", n " << n << ", sample " << i;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerBitsProperty, ::testing::Values(2, 3, 4, 5, 6, 8));

// ----------------------------------------------------------- CRC family ----

class CrcProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrcProperty, RandomRoundTripAndErrorDetection) {
  const std::size_t len = GetParam();
  Rng rng(len);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec data = rng.bits(len);
    const BitVec coded16 = phy::append_crc16(data);
    const BitVec coded32 = phy::append_crc32(data);
    EXPECT_TRUE(phy::check_crc16(coded16));
    EXPECT_TRUE(phy::check_crc32(coded32));

    // Any single-bit flip must be caught.
    BitVec corrupted = coded32;
    corrupted[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(corrupted.size() - 1)))] ^= 1;
    EXPECT_FALSE(phy::check_crc32(corrupted));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CrcProperty, ::testing::Values(1u, 8u, 33u, 100u, 999u));

// ------------------------------------------------------ conv-code family ----

class ConvCodeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvCodeProperty, AnySingleCodedBitErrorIsCorrected) {
  // A rate-1/2 code with free distance >= 5 corrects any single error.
  const fec::ConvCode code = GetParam() == 0 ? fec::ConvCode{} : fec::k7_rate_half();
  const fec::ConvEncoder enc(code);
  const fec::ViterbiDecoder dec(code);
  Rng rng(7);
  const BitVec info = rng.bits(60);
  const BitVec coded = enc.encode(info);
  for (std::size_t flip = 0; flip < coded.size(); flip += 5) {
    BitVec corrupted = coded;
    corrupted[flip] ^= 1;
    EXPECT_EQ(dec.decode_hard(corrupted), info) << "flip=" << flip;
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, ConvCodeProperty, ::testing::Values(0, 1));

// ------------------------------------------------------ SV model family ----

class SvSeedProperty : public ::testing::TestWithParam<int> {};

TEST_P(SvSeedProperty, EveryRealizationNormalizedCausalSorted) {
  for (int cm = 1; cm <= 4; ++cm) {
    const channel::SalehValenzuela sv(channel::cm_by_index(cm));
    Rng rng(static_cast<uint64_t>(GetParam() * 10 + cm));
    const channel::Cir cir = sv.realize(rng);
    EXPECT_NEAR(cir.total_energy(), 1.0, 1e-9);
    double prev = -1.0;
    for (const auto& tap : cir.taps()) {
      EXPECT_GE(tap.delay_s, 0.0);
      EXPECT_GE(tap.delay_s, prev);
      prev = tap.delay_s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvSeedProperty, ::testing::Range(1, 9));

// ----------------------------------------------------- notch tuning family ----

class NotchFrequencyProperty : public ::testing::TestWithParam<double> {};

TEST_P(NotchFrequencyProperty, ZeroAtCenterUnityFarAway) {
  const double f0 = GetParam();
  const double fs = 1e9;
  rf::ComplexNotch notch(f0, fs, 0.97);
  EXPECT_LT(std::abs(notch.response_at(f0)), 1e-9) << "f0=" << f0;
  // A quarter-band away the gain must be back within 1 dB of unity.
  const double far = (f0 > 0.0) ? f0 - 0.25 * fs : f0 + 0.25 * fs;
  EXPECT_NEAR(amp_to_db(std::abs(notch.response_at(far))), 0.0, 1.0) << "f0=" << f0;
}

INSTANTIATE_TEST_SUITE_P(Tunings, NotchFrequencyProperty,
                         ::testing::Values(-350e6, -120e6, -10e6, 15e6, 150e6, 400e6));

// --------------------------------------------------- AWGN calibration family ----

class AwgnEbn0Property : public ::testing::TestWithParam<double> {};

TEST_P(AwgnEbn0Property, OneShotBerMatchesQFunction) {
  const double ebn0_db = GetParam();
  Rng rng(static_cast<uint64_t>(ebn0_db * 10));
  const double n0 = channel::n0_for_ebn0(1.0, ebn0_db);
  const double theory = bpsk_awgn_ber(from_db(ebn0_db));
  std::size_t errors = 0;
  const std::size_t n = 300000;
  const double sigma = std::sqrt(n0 / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double tx = rng.bit() ? -1.0 : 1.0;
    if (((tx + rng.gaussian(0.0, sigma)) < 0.0) != (tx < 0.0)) ++errors;
  }
  const double measured = static_cast<double>(errors) / static_cast<double>(n);
  EXPECT_NEAR(measured, theory, 0.25 * theory + 3e-5) << "Eb/N0=" << ebn0_db;
}

INSTANTIATE_TEST_SUITE_P(Points, AwgnEbn0Property, ::testing::Values(0.0, 2.0, 4.0, 6.0, 8.0));

// ----------------------------------------------------- modulation family ----

class ModulatorNoiseProperty : public ::testing::TestWithParam<phy::Modulation> {};

TEST_P(ModulatorNoiseProperty, DemapsCorrectlyWithSmallPerturbation) {
  // Soft values perturbed by less than half the minimum decision distance
  // must demap without error.
  const auto mod = phy::make_modulator(GetParam(), 100e6);
  Rng rng(9);
  BitVec bits = rng.bits(256);
  while (bits.size() % static_cast<std::size_t>(mod->bits_per_symbol()) != 0) bits.push_back(0);
  const phy::SymbolMapping map = mod->map(bits);

  std::vector<double> soft;
  const double eps = 0.15;  // well below half of any scheme's min distance
  if (GetParam() == phy::Modulation::kPpm) {
    for (std::size_t k = 0; k < map.weights.size(); ++k) {
      const bool late = map.time_offsets_s[k] > 0.0;
      soft.push_back((late ? 0.0 : 1.0) + rng.uniform(-eps, eps));
      soft.push_back((late ? 1.0 : 0.0) + rng.uniform(-eps, eps));
    }
  } else {
    for (double w : map.weights) soft.push_back(w + rng.uniform(-eps, eps));
  }
  EXPECT_EQ(mod->demap(soft), bits);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ModulatorNoiseProperty,
                         ::testing::Values(phy::Modulation::kBpsk, phy::Modulation::kOok,
                                           phy::Modulation::kPpm, phy::Modulation::kPam4));

}  // namespace
}  // namespace uwb
