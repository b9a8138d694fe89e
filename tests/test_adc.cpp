// Tests for the data-converter models: flash,
// time-interleaved flash (gen-1), SAR (gen-2), sample-and-hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "common/math_utils.h"
#include "common/rng.h"

namespace uwb::adc {
namespace {

/// The ideal mid-rise quantizer over [-1, 1]: the code a converter without
/// mismatch or noise must produce.
int ideal_code(double x, int bits) {
  const int num_codes = 1 << bits;
  const double lsb = 2.0 / num_codes;
  return static_cast<int>(
      std::clamp(std::floor((x + 1.0) / lsb), 0.0, static_cast<double>(num_codes - 1)));
}

// ---------------------------------------------------------------- flash ----

TEST(FlashAdc, IdealMatchesUniform) {
  Rng rng(2);
  FlashParams params;
  params.bits = 4;
  params.comparator_offset_sigma = 0.0;
  FlashAdc flash(params, rng);
  for (double x = -1.2; x <= 1.2; x += 0.01) {
    EXPECT_EQ(flash.convert(x), ideal_code(x, 4)) << "x=" << x;
  }
}

TEST(FlashAdc, CodesAndLevels) {
  // 4 codes over [-1, 1], LSB 0.5; clipped at both ends.
  Rng rng(1);
  FlashParams params;
  params.bits = 2;
  FlashAdc q(params, rng);
  EXPECT_EQ(q.convert(-2.0), 0);
  EXPECT_EQ(q.convert(-0.9), 0);
  EXPECT_EQ(q.convert(-0.3), 1);
  EXPECT_EQ(q.convert(0.3), 2);
  EXPECT_EQ(q.convert(0.9), 3);
  EXPECT_EQ(q.convert(2.0), 3);
  EXPECT_DOUBLE_EQ(q.level_of(0), -0.75);
  EXPECT_DOUBLE_EQ(q.level_of(3), 0.75);
  params.bits = 1;  // one bit is a sign detector
  FlashAdc sign(params, rng);
  EXPECT_EQ(sign.convert(-0.01), 0);
  EXPECT_EQ(sign.convert(0.01), 1);
  EXPECT_DOUBLE_EQ(sign.level_of(0), -0.5);
  EXPECT_DOUBLE_EQ(sign.level_of(1), 0.5);
  params.bits = 0;
  EXPECT_THROW(FlashAdc(params, rng), InvalidArgument);
  params.bits = 4;
  params.full_scale = -1.0;
  EXPECT_THROW(FlashAdc(params, rng), InvalidArgument);
}

TEST(FlashAdc, OffsetsPerturbThresholds) {
  Rng rng(3);
  FlashParams params;
  params.bits = 4;
  params.comparator_offset_sigma = 0.3;
  FlashAdc flash(params, rng);
  // Thresholds stay sorted (bubble-corrected) but differ from nominal.
  const RealVec& th = flash.thresholds();
  bool any_moved = false;
  const double lsb = 2.0 / 16.0;
  for (std::size_t k = 0; k < th.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(th[k], th[k - 1]);
    }
    const double nominal = -1.0 + static_cast<double>(k + 1) * lsb;
    if (std::abs(th[k] - nominal) > 1e-6) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(FlashAdc, TransferIsMonotone) {
  Rng rng(4);
  FlashParams params;
  params.bits = 5;
  params.comparator_offset_sigma = 0.5;
  FlashAdc flash(params, rng);
  int prev = flash.convert(-1.5);
  for (double x = -1.5; x <= 1.5; x += 0.003) {
    const int code = flash.convert(x);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

// ------------------------------------------------------- time-interleaved ----

TEST(TimeInterleaved, RoundRobinLanes) {
  Rng rng(5);
  FlashParams lane;
  lane.bits = 4;
  InterleaveMismatch mm;
  mm.offset_sigma = 0.2;  // large, to tell lanes apart
  TimeInterleavedAdc adc(4, lane, mm, rng);
  EXPECT_EQ(adc.num_lanes(), 4);
  // Constant input: levels repeat with period 4 (per-lane offsets differ).
  const std::vector<float> x(16, 0.0f);
  std::vector<float> levels(x.size());
  adc.convert_block(x.data(), x.size(), levels.data());
  for (int i = 0; i < 12; ++i) EXPECT_EQ(levels[i], levels[i + 4]);
}

TEST(TimeInterleaved, MismatchCreatesSpurs) {
  // A pure tone through a gain-mismatched interleaved ADC grows tones at
  // fs/M offsets; total error power exceeds the matched case.
  Rng rng(6);
  FlashParams lane;
  lane.bits = 8;
  InterleaveMismatch matched{0.0, 0.0, 0.0};
  InterleaveMismatch mismatched{0.05, 0.02, 0.0};
  TimeInterleavedAdc good(4, lane, matched, rng);
  TimeInterleavedAdc bad(4, lane, mismatched, rng);

  std::vector<float> x(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(0.8 * std::sin(two_pi * 0.137 * static_cast<double>(i)));
  }
  std::vector<float> y_good(x.size()), y_bad(x.size());
  good.convert_block(x.data(), x.size(), y_good.data());
  bad.convert_block(x.data(), x.size(), y_bad.data());
  double err_good = 0.0, err_bad = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err_good += std::pow(y_good[i] - x[i], 2);
    err_bad += std::pow(y_bad[i] - x[i], 2);
  }
  EXPECT_GT(err_bad, 3.0 * err_good);
}

TEST(TimeInterleaved, ResetRestartsLaneZero) {
  Rng rng(7);
  FlashParams lane;
  lane.bits = 4;
  InterleaveMismatch mm;
  mm.offset_sigma = 0.2;
  TimeInterleavedAdc adc(4, lane, mm, rng);
  const float x[2] = {0.3f, 0.3f};
  float first[2];
  adc.convert_block(x, 2, first);
  float again = 0.0f;
  adc.convert_block(x, 1, &again);  // lane 2
  adc.reset();
  adc.convert_block(x, 1, &again);
  EXPECT_EQ(again, first[0]);
}

TEST(TimeInterleaved, SeekConvertsAWindowAsInsideTheStream) {
  // Lane = absolute index mod lanes: a window converted after seek(begin)
  // equals the same samples of a whole-stream pass, aligned or not.
  Rng rng(8);
  FlashParams lane;
  lane.bits = 4;
  lane.comparator_offset_sigma = 0.3;
  InterleaveMismatch mm{0.02, 0.01, 0.0};
  TimeInterleavedAdc adc(4, lane, mm, rng);
  std::vector<float> x(203);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.1, 1.1));
  std::vector<float> whole(x.size());
  adc.reset();
  adc.convert_block(x.data(), x.size(), whole.data());
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 203}, {8, 24},
                                   {13, 14}, {5, 200}, {196, 203}}) {
    std::vector<float> part(end - begin);
    adc.seek(begin);
    adc.convert_block(x.data() + begin, part.size(), part.data());
    for (std::size_t i = 0; i < part.size(); ++i) {
      ASSERT_EQ(part[i], whole[begin + i]) << "window [" << begin << ", " << end << ")";
    }
  }
}

// ------------------------------------------------------------------ sar ----

TEST(SarAdc, IdealMatchesUniform) {
  Rng rng(8);
  SarParams params;
  params.bits = 5;
  params.cap_mismatch_sigma = 0.0;
  params.comparator_noise = 0.0;
  SarAdc sar(params, rng);
  for (double x = -1.1; x <= 1.1; x += 0.007) {
    EXPECT_EQ(sar.convert(x), ideal_code(x, 5)) << "x=" << x;
  }
}

TEST(SarAdc, FiveBitPaperConfigResolves) {
  Rng rng(9);
  SarParams params;  // default: 5 bits, 1% mismatch
  SarAdc sar(params, rng);
  // Reconstruction error bounded by ~1 LSB even with mismatch.
  const double lsb = 2.0 / 32.0;
  for (double x = -0.95; x <= 0.95; x += 0.01) {
    const double y = sar.level_of(sar.convert(x));
    EXPECT_NEAR(y, x, 1.5 * lsb) << "x=" << x;
  }
}

TEST(SarAdc, MismatchDegradesLinearity) {
  Rng rng(10);
  SarParams good;
  good.bits = 8;
  good.cap_mismatch_sigma = 0.0;
  SarParams bad = good;
  bad.cap_mismatch_sigma = 0.05;
  SarAdc sar_good(good, rng), sar_bad(bad, rng);
  double err_good = 0.0, err_bad = 0.0;
  for (double x = -0.99; x <= 0.99; x += 0.001) {
    err_good += std::pow(sar_good.level_of(sar_good.convert(x)) - x, 2);
    err_bad += std::pow(sar_bad.level_of(sar_bad.convert(x)) - x, 2);
  }
  EXPECT_GT(err_bad, err_good);
}

TEST(SarAdc, ComparatorNoiseFlipsLsbs) {
  Rng rng(11);
  SarParams noisy;
  noisy.bits = 5;
  noisy.comparator_noise = 0.02;
  SarAdc sar(noisy, rng);
  // Converting the same mid-scale value repeatedly should not always give
  // the same code when the comparator is noisy near a threshold.
  const double x = 1.0 / 32.0;  // exactly on a threshold region
  int first = sar.convert(x);
  bool varied = false;
  for (int i = 0; i < 200; ++i) {
    if (sar.convert(x) != first) {
      varied = true;
      break;
    }
  }
  EXPECT_TRUE(varied);
}

/// Every trial level convert() can compare against: for each code path and
/// bit k, the DAC value summed in convert()'s order plus weight k.
RealVec sar_trial_levels(const SarAdc& sar) {
  const RealVec& w = sar.weights();
  RealVec levels;
  for (int code = 0; code < (1 << sar.bits()); ++code) {
    double dac = -sar.full_scale();
    for (int k = 0; k < sar.bits(); ++k) {
      const double trial = dac + w[static_cast<std::size_t>(k)];
      levels.push_back(trial);
      if (code & (1 << (sar.bits() - 1 - k))) dac = trial;
    }
  }
  return levels;
}

TEST(SarAdc, BlockDigitizeMatchesConvertAtEveryThreshold) {
  // The decision-tree + level-table block path must reproduce
  // level_of(convert(x)) exactly, including at each trial level and one
  // ulp either side of it, under capacitor mismatch, for any block length.
  for (const int bits : {1, 3, 5, 8}) {
    SarParams params;
    params.bits = bits;
    params.cap_mismatch_sigma = 0.03;
    Rng rng(40 + bits);
    SarAdc sar(params, rng);
    RealVec x;
    for (const double t : sar_trial_levels(sar)) {
      x.push_back(std::nextafter(t, -INFINITY));
      x.push_back(t);
      x.push_back(std::nextafter(t, INFINITY));
    }
    for (double v = -1.3; v <= 1.3; v += 0.0037) x.push_back(v);
    RealVec got(x.size());
    sar.digitize_to(x.data(), x.size(), got.data());
    for (std::size_t k = 0; k < x.size(); ++k) {
      ASSERT_EQ(got[k], sar.level_of(sar.convert(x[k])))
          << bits << " bits, x=" << x[k];
    }
    // Short blocks, lengths 0-9 (none, some or all samples in the
    // four-wide walk) at offsets 0-11, put the threshold inputs at the
    // head of x in every lane and in the one-by-one tail.
    for (std::size_t n = 0; n <= 9; ++n) {
      for (std::size_t start = 0; start < 12; ++start) {
        RealVec part(n + 1, -7.0);  // one guard slot past the end
        sar.digitize_to(x.data() + start, n, part.data());
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(part[k], got[start + k]) << bits << " bits, n=" << n << ", x=" << x[start + k];
        }
        ASSERT_EQ(part[n], -7.0) << bits << " bits, n=" << n << " wrote past the end";
      }
    }
  }
}

TEST(SarAdc, BlockDigitizeDrawsComparatorNoiseLikeConvert) {
  // With comparator noise the block path must consume the noise stream
  // exactly as per-sample convert() does: same levels, same stream after.
  SarParams params;
  params.bits = 5;
  params.cap_mismatch_sigma = 0.01;
  params.comparator_noise = 0.01;
  Rng rng_a(12);
  Rng rng_b(12);
  SarAdc per_sample(params, rng_a);
  SarAdc block(params, rng_b);
  Rng data(13);
  RealVec x(5000);
  for (double& v : x) v = data.uniform(-1.1, 1.1);
  RealVec got(x.size());
  block.digitize_to(x.data(), x.size(), got.data());
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_EQ(got[k], per_sample.level_of(per_sample.convert(x[k]))) << "sample " << k;
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(block.convert(0.01), per_sample.convert(0.01));
}

// --------------------------------------------------------------- sampling ----

/// One rail through the gen-2 sampler (sample_iq_to with a zero Q rail).
RealVec sample_rail(const SampleAndHold& sh, const RealVec& x, double fs_in, Rng& rng) {
  const RealVec zeros(x.size(), 0.0);
  RealVec out_i(sh.output_size(x.size(), fs_in));
  RealVec out_q(out_i.size());
  sh.sample_iq_to(x.data(), zeros.data(), x.size(), fs_in, rng, out_i.data(), out_q.data());
  return out_i;
}

TEST(SampleAndHold, IntegerDecimation) {
  SamplingParams params;
  params.adc_rate_hz = 1e9;
  SampleAndHold sh(params);
  Rng rng(12);
  RealVec x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const RealVec y = sample_rail(sh, x, 4e9, rng);
  ASSERT_EQ(y.size(), 25u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 8.0);
}

TEST(SampleAndHold, PhaseOffsetInterpolates) {
  SamplingParams params;
  params.adc_rate_hz = 1e9;
  params.phase_offset_s = 0.125e-9;  // half an input sample at 4 GHz
  SampleAndHold sh(params);
  Rng rng(13);
  RealVec x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const RealVec y = sample_rail(sh, x, 4e9, rng);
  EXPECT_NEAR(y[1], 4.5, 1e-9);
}

TEST(SampleAndHold, JitterAddsNoiseOnFastSignal) {
  SamplingParams clean;
  clean.adc_rate_hz = 1e9;
  SamplingParams jittery = clean;
  jittery.aperture_jitter_rms_s = 20e-12;
  Rng rng_a(14), rng_b(14);
  RealVec x(40000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(two_pi * 400e6 * static_cast<double>(i) / 4e9);
  }
  const RealVec y0 = sample_rail(SampleAndHold(clean), x, 4e9, rng_a);
  const RealVec y1 = sample_rail(SampleAndHold(jittery), x, 4e9, rng_b);
  double err = 0.0;
  const std::size_t n = std::min(y0.size(), y1.size());
  for (std::size_t i = 0; i < n; ++i) err += std::pow(y0[i] - y1[i], 2);
  // Jitter * 2 pi f * A: sigma ~ 2pi*400e6*20e-12 = 0.05 -> var ~ 2.5e-3 ... 1e-2.
  EXPECT_GT(err / n, 5e-4);
  EXPECT_LT(err / n, 5e-2);
}

TEST(SampleAndHold, LanePlanWindowsMatchTheWholeStreamBitForBit) {
  // A jitter-free integer-ratio sampler produces any window of its float
  // stream from just the input span that window reads: skews that reach
  // before the first and past the last input sample, windows at both ends.
  Rng rng(16);
  for (const double fs_in : {4e9, 6e9}) {
    SampleAndHold sh(SamplingParams{2e9, 0.0, 0.0});
    const RealVec skews{-0.7e-9, 0.2e-9, 0.0, 1.3e-9};
    const std::optional<SampleAndHold::LanePlan> plan = sh.lane_plan(fs_in, skews);
    ASSERT_TRUE(plan.has_value());
    std::vector<float> x(401);
    for (float& v : x) v = static_cast<float>(rng.gaussian());
    const std::size_t n_out = sh.output_size(x.size(), fs_in);
    std::vector<float> whole(n_out);
    sh.sample_interleaved_to(x.data(), x.size(), fs_in, skews, rng, whole.data());
    for (const auto& [k0, k1] : {std::pair<std::size_t, std::size_t>{0, n_out}, {0, 3},
                                 {4, 18}, {37, 38}, {n_out - 5, n_out}}) {
      const auto [first, last] = plan->input_span(k0, k1, x.size());
      const std::vector<float> slice(x.begin() + static_cast<std::ptrdiff_t>(first),
                                     x.begin() + static_cast<std::ptrdiff_t>(last));
      std::vector<float> part(k1 - k0);
      plan->sample_to(slice.data(), x.size(), k0, k1, part.data());
      for (std::size_t k = k0; k < k1; ++k) {
        ASSERT_EQ(part[k - k0], whole[k]) << fs_in << " Hz, window [" << k0 << ", " << k1
                                          << "), sample " << k;
      }
    }
  }
  // Jittered instants draw the Rng in stream order: no lane plan.
  const SampleAndHold jittered(SamplingParams{2e9, 1e-12, 0.0});
  EXPECT_FALSE(jittered.lane_plan(4e9, RealVec{0.0, 0.0}).has_value());
}

TEST(SampleAndHold, RejectsUpsampling) {
  SamplingParams params;
  params.adc_rate_hz = 4e9;
  SampleAndHold sh(params);
  Rng rng(15);
  EXPECT_THROW((void)sample_rail(sh, RealVec(10, 0.0), 1e9, rng), Error);
}

}  // namespace
}  // namespace uwb::adc
