// Tests for the channel models: CIR container, Saleh-Valenzuela CM1-CM4,
// AWGN calibration, the CW interferer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "channel/awgn.h"
#include "channel/cir.h"
#include "channel/interferer.h"
#include "channel/saleh_valenzuela.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/power_spectrum.h"

namespace uwb::channel {
namespace {

// ------------------------------------------------------------------ cir ----

TEST(Cir, SortsAndMeasures) {
  Cir cir({{20e-9, {0.5, 0.0}}, {0.0, {1.0, 0.0}}});
  ASSERT_EQ(cir.num_taps(), 2u);
  EXPECT_DOUBLE_EQ(cir.taps()[0].delay_s, 0.0);  // sorted by delay
  EXPECT_DOUBLE_EQ(cir.total_energy(), 1.25);
  EXPECT_DOUBLE_EQ(cir.max_delay(), 20e-9);
  // Mean excess delay: (0*1 + 20ns*0.25)/1.25 = 4 ns.
  EXPECT_NEAR(cir.mean_excess_delay(), 4e-9, 1e-15);
}

TEST(Cir, RmsDelaySpreadTwoTap) {
  // Equal-power taps at 0 and 2 tau: rms spread = tau.
  Cir cir({{0.0, {1.0, 0.0}}, {20e-9, {1.0, 0.0}}});
  EXPECT_NEAR(cir.rms_delay_spread(), 10e-9, 1e-15);
}

TEST(Cir, NormalizeEnergy) {
  Cir cir({{0.0, {3.0, 0.0}}, {5e-9, {0.0, 4.0}}});
  cir.normalize_energy();
  EXPECT_NEAR(cir.total_energy(), 1.0, 1e-12);
}

TEST(Cir, StrongestAndCapture) {
  Cir cir({{0.0, {1.0, 0.0}}, {1e-9, {2.0, 0.0}}, {2e-9, {0.5, 0.0}}});
  const Cir top1 = cir.strongest(1);
  ASSERT_EQ(top1.num_taps(), 1u);
  EXPECT_DOUBLE_EQ(std::abs(top1.taps()[0].gain), 2.0);
  EXPECT_NEAR(cir.energy_capture(1), 4.0 / 5.25, 1e-12);
  EXPECT_NEAR(cir.energy_capture(3), 1.0, 1e-12);
}

TEST(Cir, SampledBinsTaps) {
  const double fs = 1e9;
  Cir cir({{0.0, {1.0, 0.0}}, {3e-9, {0.5, 0.0}}});
  const CplxVec h = cir.sampled(fs);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_NEAR(std::abs(h[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(h[3]), 0.5, 1e-12);
}

TEST(Cir, RejectsNegativeDelay) {
  const std::vector<CirTap> taps = {{-1e-9, {1.0, 0.0}}};
  EXPECT_THROW(Cir{taps}, InvalidArgument);
}

// ---------------------------------------------------- saleh-valenzuela ----

/// Mean rms delay spread of \p count realizations of \p sv.
double average_rms_delay_spread(const SalehValenzuela& sv, Rng& rng, int count) {
  double acc = 0.0;
  for (int i = 0; i < count; ++i) acc += sv.realize(rng).rms_delay_spread();
  return acc / count;
}

class SvModelTest : public ::testing::TestWithParam<int> {};

TEST_P(SvModelTest, RealizationsAreNormalizedAndCausal) {
  const SalehValenzuela sv(cm_by_index(GetParam()));
  Rng rng(100 + GetParam());
  for (int i = 0; i < 20; ++i) {
    const Cir cir = sv.realize(rng);
    EXPECT_NEAR(cir.total_energy(), 1.0, 1e-9);
    EXPECT_GE(cir.taps().front().delay_s, 0.0);
    EXPECT_GT(cir.num_taps(), 3u);
  }
}

TEST_P(SvModelTest, DelaySpreadOrdering) {
  // CM1 < CM3 < CM4 in average rms delay spread; CM4 lands near the
  // paper's "order of 20 ns".
  Rng rng(42);
  const double cm_spread =
      average_rms_delay_spread(SalehValenzuela(cm_by_index(GetParam())), rng, 60);
  switch (GetParam()) {
    case 1: EXPECT_LT(cm_spread, 10e-9); break;
    case 2: EXPECT_LT(cm_spread, 14e-9); break;
    case 3: EXPECT_GT(cm_spread, 8e-9); break;
    case 4: EXPECT_GT(cm_spread, 14e-9); break;
    default: FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCm, SvModelTest, ::testing::Values(1, 2, 3, 4));

TEST(SalehValenzuela, Cm4ReachesPaperDelaySpread) {
  Rng rng(7);
  const double spread = average_rms_delay_spread(SalehValenzuela(cm4()), rng, 100);
  EXPECT_GT(spread, 15e-9);
  EXPECT_LT(spread, 40e-9);
}

TEST(SalehValenzuela, DeterministicGivenSeed) {
  const SalehValenzuela sv(cm3());
  Rng a(9), b(9);
  const Cir ca = sv.realize(a);
  const Cir cb = sv.realize(b);
  ASSERT_EQ(ca.num_taps(), cb.num_taps());
  for (std::size_t i = 0; i < ca.num_taps(); ++i) {
    EXPECT_DOUBLE_EQ(ca.taps()[i].delay_s, cb.taps()[i].delay_s);
    EXPECT_EQ(ca.taps()[i].gain, cb.taps()[i].gain);
  }
}

TEST(SalehValenzuela, RealPolarityVariant) {
  SvParams params = cm1();
  params.complex_phases = false;
  const SalehValenzuela sv(params);
  Rng rng(11);
  const Cir cir = sv.realize(rng);
  for (const auto& tap : cir.taps()) {
    EXPECT_DOUBLE_EQ(tap.gain.imag(), 0.0);
  }
}

TEST(SalehValenzuela, ShadowingSpreadsEnergy) {
  const SalehValenzuela sv(cm2());
  Rng rng(13);
  RealVec energies;
  for (int i = 0; i < 200; ++i) {
    energies.push_back(sv.realize(rng, /*apply_shadowing=*/true).total_energy());
  }
  double mean = 0.0;
  for (double e : energies) mean += e;
  mean /= energies.size();
  double var = 0.0;
  for (double e : energies) var += (e - mean) * (e - mean);
  var /= energies.size();
  EXPECT_GT(var, 0.05);  // lognormal shadowing -> non-trivial spread
}

// ----------------------------------------------------------------- awgn ----

TEST(Awgn, VarianceCalibration) {
  Rng rng(14);
  CplxVec x(200000, cplx{});
  add_awgn(x, 0.36, rng);
  double acc = 0.0;
  for (const auto& v : x) acc += std::norm(v);
  EXPECT_NEAR(acc / x.size(), 0.36, 0.01);
}

TEST(Awgn, RealNoiseIsHalfPerRail) {
  Rng rng(15);
  std::vector<float> x(200000, 0.0f);
  add_awgn(x.data(), x.size(), 1.0, rng);
  double acc = 0.0;
  for (const float v : x) acc += static_cast<double>(v) * v;
  EXPECT_NEAR(acc / static_cast<double>(x.size()), 0.5, 0.01);
}

TEST(Awgn, FloatNoiseIsOneStreamSeededByOneEngineDraw) {
  // The float path seeds its stream from one engine draw and reads it in
  // sample order: n samples get the first n draws a longer call adds, odd n
  // included.
  constexpr std::size_t n = 1001;
  std::vector<float> longer(n + 6, 0.25f);
  Rng longer_rng(17);
  add_awgn(longer.data(), longer.size(), 0.8, longer_rng);
  for (const std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{501}, n}) {
    std::vector<float> x(len, 0.25f);
    Rng rng(17);
    add_awgn(x.data(), len, 0.8, rng);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), longer.begin())) << len << " samples";
    Rng probe = longer_rng;
    EXPECT_EQ(rng.engine()(), probe.engine()()) << "one engine draw seeds the stream";
  }
}

TEST(Awgn, MatchedFilterBerMatchesTheory) {
  // One-sample BPSK with Eb = 1: BER must track Q(sqrt(2 Eb/N0)).
  Rng rng(16);
  const double ebn0_db = 6.0;
  const double n0 = n0_for_ebn0(1.0, ebn0_db);
  std::size_t errors = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const float tx = rng.bit() ? -1.0f : 1.0f;
    float s = tx;
    add_awgn(&s, 1, n0, rng);
    if ((s < 0.0f) != (tx < 0.0f)) ++errors;
  }
  const double measured = static_cast<double>(errors) / static_cast<double>(n);
  const double theory = bpsk_awgn_ber(from_db(ebn0_db));
  EXPECT_NEAR(measured, theory, 0.3 * theory + 1e-5);
}

/// The double-precision ziggurat as it stood before its accepted path went
/// branch-free: 256 layers on mt19937_64, the sign chosen by a branch on
/// bit 8. Counts how often the wedge and base-layer tail paths run, so the
/// equivalence test below can show it exercised both.
struct ReferenceZiggurat {
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kArea = 0.00492867323399;
  double x[kLayers + 1];
  double y[kLayers + 1];
  std::size_t wedge = 0;
  std::size_t tail = 0;

  ReferenceZiggurat() {
    x[0] = kArea * std::exp(0.5 * kR * kR);
    x[1] = kR;
    for (int i = 1; i < kLayers; ++i) {
      const double fx = std::exp(-0.5 * x[i] * x[i]);
      x[i + 1] = std::sqrt(-2.0 * std::log(kArea / x[i] + fx));
    }
    x[kLayers] = 0.0;
    for (int i = 0; i <= kLayers; ++i) y[i] = std::exp(-0.5 * x[i] * x[i]);
  }

  static double uniform01(Mt19937_64& eng) {
    return static_cast<double>(eng() >> 11) * 0x1.0p-53;
  }

  double normal(Mt19937_64& eng) {
    while (true) {
      const std::uint64_t u = eng();
      const int i = static_cast<int>(u & 255u);
      const double sign = (u & 256u) != 0 ? -1.0 : 1.0;
      const double ux = static_cast<double>(u >> 12) * 0x1.0p-52;
      const double cand = ux * x[i];
      if (cand < x[i + 1]) return sign * cand;
      if (i == 0) {
        ++tail;
        double xt;
        double yt;
        do {
          xt = -std::log(1.0 - uniform01(eng)) / kR;
          yt = -std::log(1.0 - uniform01(eng));
        } while (yt + yt < xt * xt);
        return sign * (kR + xt);
      }
      ++wedge;
      const double yr = y[i] + uniform01(eng) * (y[i + 1] - y[i]);
      if (yr < std::exp(-0.5 * cand * cand)) return sign * cand;
    }
  }
};

TEST(Awgn, BranchFreeZigguratMatchesReferenceStream) {
  // Split-rail and interleaved complex AWGN must add exactly the samples
  // the reference sampler draws (real, then imaginary, per sample) and
  // leave the engine in the same state, over > 10^6 draws that hit both
  // the wedge and the tail. An FMA-capable -march=native build may fuse
  // the scale-and-add differently on either side; there the samples agree
  // to rounding (the draws themselves must still match exactly).
#ifdef __FMA__
  constexpr double kTol = 1e-15;
#else
  constexpr double kTol = 0.0;
#endif
  constexpr std::size_t n = 600'000;
  const double n0 = 0.37;
  const double sigma = std::sqrt(n0 / 2.0);
  Rng seed_rng(0x21661);
  CplxVec start(n);
  for (cplx& v : start) v = seed_rng.cgaussian();

  Rng ref_rng(77);
  ReferenceZiggurat ref;
  CplxVec want = start;
  for (cplx& v : want) {
    const double re = sigma * ref.normal(ref_rng.engine());
    const double im = sigma * ref.normal(ref_rng.engine());
    v += cplx{re, im};
  }
  EXPECT_GT(ref.wedge, 0u);
  EXPECT_GT(ref.tail, 0u);

  Rng split_rng(77);
  RealVec xi(n);
  RealVec xq(n);
  for (std::size_t k = 0; k < n; ++k) {
    xi[k] = start[k].real();
    xq[k] = start[k].imag();
  }
  add_awgn(xi.data(), xq.data(), n, n0, split_rng);

  Rng cplx_rng(77);
  CplxVec interleaved = start;
  add_awgn(interleaved, n0, cplx_rng);

  for (std::size_t k = 0; k < n; ++k) {
    const double tol = kTol * (1.0 + std::abs(want[k]));
    ASSERT_NEAR(xi[k], want[k].real(), tol) << "sample " << k;
    ASSERT_NEAR(xq[k], want[k].imag(), tol) << "sample " << k;
    ASSERT_NEAR(interleaved[k].real(), want[k].real(), tol) << "sample " << k;
    ASSERT_NEAR(interleaved[k].imag(), want[k].imag(), tol) << "sample " << k;
  }
  EXPECT_TRUE(split_rng.engine() == ref_rng.engine());
  EXPECT_TRUE(cplx_rng.engine() == ref_rng.engine());
}

// ------------------------------------------------------------ interferer ----

TEST(Interferer, CwPowerAndFrequency) {
  // At 0 dB SIR against a power-2 signal, the rail tone has power 2 and
  // its spectrum peaks at the offset.
  const std::size_t n = 8192;
  RealVec re(n, 0.0), im(n, 0.0);
  Rng rng(17);
  add_cw_interferer(re.data(), im.data(), n, 1e9, 100e6, 2.0, 0.0, rng);
  CplxWaveform tone(n, 1e9);
  for (std::size_t k = 0; k < n; ++k) tone[k] = {re[k], im[k]};
  EXPECT_NEAR(tone.power(), 2.0, 1e-9);
  const dsp::Psd psd = dsp::welch_psd(tone, 1024);
  EXPECT_NEAR(psd.freq_hz[psd.peak_bin()], 100e6, 1e9 / 1024.0);
  EXPECT_THROW(add_cw_interferer(re.data(), im.data(), n, 1e9, 600e6, 2.0, 0.0, rng),
               InvalidArgument);
  EXPECT_THROW(add_cw_interferer(re.data(), im.data(), n, 1e9, 100e6, 0.0, 0.0, rng),
               InvalidArgument);
}

TEST(Interferer, SirCalibration) {
  Rng rng(18);
  const std::size_t n = 20000;
  RealVec re(n, 1.0), im(n, 0.0);
  const double signal_power = 1.0;
  // Interferer 10 dB above the signal.
  add_cw_interferer(re.data(), im.data(), n, 1e9, 50e6, signal_power, -10.0, rng);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += re[k] * re[k] + im[k] * im[k];
  // Total power ~ signal + 10x signal.
  EXPECT_NEAR(acc / static_cast<double>(n), 11.0, 0.3);
}

}  // namespace
}  // namespace uwb::channel
