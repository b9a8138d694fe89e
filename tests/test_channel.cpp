// Tests for the channel models: CIR container, Saleh-Valenzuela CM1-CM4,
// AWGN calibration, interferers, antenna model, path loss.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "channel/antenna.h"
#include "channel/awgn.h"
#include "channel/cir.h"
#include "channel/interferer.h"
#include "channel/path_loss.h"
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

TEST(Cir, TruncatedDropsWeakTaps) {
  Cir cir({{0.0, {1.0, 0.0}}, {1e-9, {0.005, 0.0}}});
  const Cir kept = cir.truncated(-40.0);
  EXPECT_EQ(kept.num_taps(), 1u);
}

TEST(Cir, SampledBinsTaps) {
  const double fs = 1e9;
  Cir cir({{0.0, {1.0, 0.0}}, {3e-9, {0.5, 0.0}}});
  const CplxVec h = cir.sampled(fs);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_NEAR(std::abs(h[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(h[3]), 0.5, 1e-12);
}

TEST(Cir, ApplyConvolves) {
  const double fs = 1e9;
  Cir cir({{0.0, {1.0, 0.0}}, {2e-9, {-0.5, 0.0}}});
  CplxWaveform x(CplxVec{{1.0, 0.0}}, fs);
  const CplxWaveform y = cir.apply(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(y[2].real(), -0.5, 1e-12);
}

TEST(Cir, RejectsNegativeDelay) {
  const std::vector<CirTap> taps = {{-1e-9, {1.0, 0.0}}};
  EXPECT_THROW(Cir{taps}, InvalidArgument);
}

// ---------------------------------------------------- saleh-valenzuela ----

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
      SalehValenzuela(cm_by_index(GetParam())).average_rms_delay_spread(rng, 60);
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
  const double spread = SalehValenzuela(cm4()).average_rms_delay_spread(rng, 100);
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
  RealVec x(200000, 0.0);
  add_awgn(x, 1.0, rng);
  EXPECT_NEAR(mean_power(x), 0.5, 0.01);
}

TEST(Awgn, MatchedFilterBerMatchesTheory) {
  // One-sample BPSK with Eb = 1: BER must track Q(sqrt(2 Eb/N0)).
  Rng rng(16);
  const double ebn0_db = 6.0;
  const double n0 = n0_for_ebn0(1.0, ebn0_db);
  std::size_t errors = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const double tx = rng.bit() ? -1.0 : 1.0;
    RealVec s = {tx};
    add_awgn(s, n0, rng);
    if ((s[0] < 0.0) != (tx < 0.0)) ++errors;
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

  static double uniform01(std::mt19937_64& eng) {
    return static_cast<double>(eng() >> 11) * 0x1.0p-53;
  }

  double normal(std::mt19937_64& eng) {
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

TEST(Awgn, EnergyPerBit) {
  const CplxWaveform w(CplxVec(100, cplx{2.0, 0.0}), 1e9);
  EXPECT_NEAR(energy_per_bit(w, 10), 40.0, 1e-9);
  EXPECT_THROW(energy_per_bit(w, 0), InvalidArgument);
}

// ------------------------------------------------------------ interferer ----

TEST(Interferer, CwPowerAndFrequency) {
  InterfererSpec spec;
  spec.kind = InterfererKind::kCw;
  spec.freq_offset_hz = 100e6;
  spec.power = 2.0;
  const Interferer intf(spec);
  Rng rng(17);
  const CplxVec tone = intf.generate(8192, 1e9, rng);
  EXPECT_NEAR(mean_power(tone), 2.0, 1e-9);
  const dsp::Psd psd = dsp::welch_psd(CplxWaveform(tone, 1e9), 1024);
  EXPECT_NEAR(psd.freq_hz[psd.peak_bin()], 100e6, 1e9 / 1024.0);
}

TEST(Interferer, SirCalibration) {
  Rng rng(18);
  CplxWaveform signal(CplxVec(20000, cplx{1.0, 0.0}), 1e9);
  const double signal_power = signal.power();
  add_cw_interferer(signal, 50e6, signal_power, -10.0, rng);  // interferer 10 dB above
  // Total power ~ signal + 10x signal.
  EXPECT_NEAR(signal.power(), 11.0, 0.3);
}

TEST(Interferer, ModulatedIsWiderThanCw) {
  InterfererSpec cw;
  cw.kind = InterfererKind::kCw;
  cw.freq_offset_hz = 50e6;
  InterfererSpec mod = cw;
  mod.kind = InterfererKind::kModulated;
  mod.mod_rate_hz = 10e6;
  Rng rng(19);
  const CplxVec tone = Interferer(cw).generate(16384, 1e9, rng);
  const CplxVec bpsk = Interferer(mod).generate(16384, 1e9, rng);
  const auto bw_cw = dsp::occupied_bandwidth(dsp::welch_psd(CplxWaveform(tone, 1e9), 1024));
  const auto bw_mod = dsp::occupied_bandwidth(dsp::welch_psd(CplxWaveform(bpsk, 1e9), 1024));
  EXPECT_GT(bw_mod, 2.0 * bw_cw);
}

// -------------------------------------------------------------- antenna ----

TEST(Antenna, BandpassBehaviour) {
  AntennaParams params;
  const double fs = 25e9;
  const AntennaModel ant(params, fs);
  // In-band gain ~ 0 dB (within ripple), out-of-band heavily attenuated.
  EXPECT_NEAR(ant.gain_db_at(6.8e9), 0.0, 3.0);
  EXPECT_LT(ant.gain_db_at(0.8e9), -20.0);
  EXPECT_LT(ant.gain_db_at(12.1e9), -10.0);
}

TEST(Antenna, ImpulseResponseAddsToChannel) {
  // Applying the antenna twice (TX + RX) must equal convolving its response
  // twice -- linearity (the "impulse responses add" point of Section 1).
  AntennaParams params;
  const double fs = 25e9;
  const AntennaModel ant(params, fs);
  RealWaveform x(RealVec(512, 0.0), fs);
  x.samples()[100] = 1.0;
  const RealWaveform once = ant.apply(x);
  const RealWaveform twice = ant.apply(once);
  // Energy through the cascade stays finite and bounded.
  EXPECT_GT(twice.total_energy(), 0.0);
  EXPECT_LT(twice.total_energy(), 4.0 * once.total_energy() + 1.0);
}

TEST(Antenna, RejectsLowSampleRate) {
  EXPECT_THROW(AntennaModel(AntennaParams{}, 10e9), InvalidArgument);
}

// ------------------------------------------------------------ path loss ----

TEST(PathLoss, FreeSpaceKnownValue) {
  // FSPL at 1 m, 4 GHz: 20 log10(4 pi * 4e9 / c) ~ 44.5 dB.
  EXPECT_NEAR(free_space_path_loss_db(1.0, 4e9), 44.5, 0.2);
  // +6 dB per distance doubling.
  EXPECT_NEAR(free_space_path_loss_db(2.0, 4e9) - free_space_path_loss_db(1.0, 4e9), 6.02,
              0.05);
}

TEST(PathLoss, FccLimitedTxPower) {
  // -41.3 dBm/MHz over 500 MHz: -41.3 + 27 = -14.3 dBm.
  EXPECT_NEAR(fcc_limited_tx_power_dbm(500e6), -14.3, 0.05);
}

TEST(PathLoss, LinkBudgetSupportsPaperRates) {
  // Gen-2 at 100 Mbps over ~4 m must close with reasonable margin
  // ("high data rates over short distances").
  LinkBudget budget;
  budget.tx_power_dbm = fcc_limited_tx_power_dbm(500e6);
  budget.distance_m = 4.0;
  budget.bit_rate_hz = 100e6;
  EXPECT_GT(budget.ebn0_db(), 6.0);
  // And the usable range for 100 Mbps is a handful of meters, not hundreds.
  const double d_max = budget.max_distance_m(10.0);
  EXPECT_GT(d_max, 2.0);
  EXPECT_LT(d_max, 60.0);
}

TEST(PathLoss, LowerRateBuysRange) {
  LinkBudget fast;
  fast.bit_rate_hz = 100e6;
  LinkBudget slow = fast;
  slow.bit_rate_hz = 1e6;
  EXPECT_GT(slow.max_distance_m(10.0), fast.max_distance_m(10.0));
}

}  // namespace
}  // namespace uwb::channel
