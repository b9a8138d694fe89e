// Tests for the demodulation stack: matched filter baseline, RAKE
// combining, MLSE (Viterbi demodulator) over ISI channels.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "channel/awgn.h"
#include "channel/cir.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "equalizer/demodulator.h"
#include "equalizer/mlse.h"
#include "equalizer/rake.h"

namespace uwb::equalizer {
namespace {

// Builds a symbol-rate BPSK "matched filter output" waveform with a given
// symbol-spaced channel: y[m] = sum_l g[l] a[m-l] (+ noise), at sps spacing.
CplxWaveform make_isi_waveform(const std::vector<double>& a, const std::vector<cplx>& g,
                               std::size_t sps, double n0, Rng& rng) {
  const std::size_t n = a.size() * sps + 32;
  CplxVec y(n, cplx{});
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (std::size_t l = 0; l < g.size(); ++l) {
      if (m >= l) {
        y[m * sps] += g[l] * a[m - l];
      }
    }
  }
  if (n0 > 0.0) channel::add_awgn(y, n0, rng);
  return CplxWaveform(std::move(y), 1e9);
}

/// The symbol-rate observations y[m * sps] the MLSE reads.
CplxVec symbol_samples(const CplxWaveform& y, std::size_t sps, std::size_t count) {
  CplxVec obs(count);
  for (std::size_t m = 0; m < count; ++m) obs[m] = y[m * sps];
  return obs;
}

std::vector<double> random_symbols(std::size_t n, Rng& rng, BitVec* bits_out = nullptr) {
  std::vector<double> a(n);
  BitVec bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = rng.bit();
    a[i] = bits[i] ? -1.0 : 1.0;
  }
  if (bits_out != nullptr) *bits_out = bits;
  return a;
}

// -------------------------------------------------------- matched filter ----

TEST(MatchedFilter, SlicesCleanBpsk) {
  Rng rng(1);
  BitVec bits;
  const auto a = random_symbols(50, rng, &bits);
  const CplxWaveform y = make_isi_waveform(a, {cplx{1.0, 0.0}}, 10, 0.0, rng);
  const SymbolTiming timing{0, 10, 50};
  const auto soft = matched_filter_soft(y, timing);
  for (std::size_t m = 0; m < 50; ++m) {
    EXPECT_EQ(soft[m] < 0.0, bits[m] != 0) << "m=" << m;
  }
}

TEST(MatchedFilter, WeightRotatesPhase) {
  // Channel gain j: conj-weighting must recover the real decision axis.
  Rng rng(2);
  const auto a = random_symbols(20, rng);
  const CplxWaveform y = make_isi_waveform(a, {cplx{0.0, 1.0}}, 4, 0.0, rng);
  const SymbolTiming timing{0, 4, 20};
  const auto soft = matched_filter_soft(y, timing, cplx{0.0, 1.0});
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_NEAR(soft[m], a[m], 1e-12);
  }
}

TEST(MatchedFilter, PpmPairs) {
  // Two correlations per symbol: punctual and offset.
  CplxVec y(40, cplx{});
  y[0] = 2.0;   // symbol 0 at punctual
  y[15] = 3.0;  // symbol 1 at offset (t0 + sps + offset = 10 + 5)
  const CplxWaveform w(y, 1e9);
  const SymbolTiming timing{0, 10, 2};
  const auto soft = matched_filter_soft_ppm(w, timing, 5);
  EXPECT_DOUBLE_EQ(soft[0], 2.0);  // symbol 0 punctual
  EXPECT_DOUBLE_EQ(soft[1], 0.0);
  EXPECT_DOUBLE_EQ(soft[2], 0.0);  // symbol 1 punctual
  EXPECT_DOUBLE_EQ(soft[3], 3.0);
}

// ------------------------------------------------------------------ rake ----

channel::Cir three_tap_cir() {
  return channel::Cir({{0.0, {0.8, 0.0}}, {2e-9, {0.0, 0.5}}, {5e-9, {-0.3, 0.1}}});
}

TEST(Rake, FingersFollowPolicy) {
  const channel::Cir cir = three_tap_cir();
  RakeConfig all;
  all.policy = FingerPolicy::kAll;
  EXPECT_EQ(RakeReceiver(all, cir, 1e9).fingers().size(), 3u);

  RakeConfig sel;
  sel.policy = FingerPolicy::kSelective;
  sel.num_fingers = 2;
  const auto fingers = RakeReceiver(sel, cir, 1e9).fingers();
  ASSERT_EQ(fingers.size(), 2u);
  // Strongest two taps: 0.8 at delay 0 and 0.5j at 2 ns.
  EXPECT_EQ(fingers[0].delay_samples, 0u);
  EXPECT_EQ(fingers[1].delay_samples, 2u);

  RakeConfig part;
  part.policy = FingerPolicy::kPartial;
  part.num_fingers = 2;
  const auto pfingers = RakeReceiver(part, cir, 1e9).fingers();
  ASSERT_EQ(pfingers.size(), 2u);
  EXPECT_EQ(pfingers[0].delay_samples, 0u);  // first arrivals, not strongest
  EXPECT_EQ(pfingers[1].delay_samples, 2u);
}

TEST(Rake, EnergyCapture) {
  const channel::Cir cir = three_tap_cir();
  RakeConfig one;
  one.policy = FingerPolicy::kSelective;
  one.num_fingers = 1;
  const double total = cir.total_energy();
  EXPECT_NEAR(RakeReceiver(one, cir, 1e9).energy_capture(), 0.64 / total, 1e-9);
  RakeConfig all;
  all.policy = FingerPolicy::kAll;
  EXPECT_NEAR(RakeReceiver(all, cir, 1e9).energy_capture(), 1.0, 1e-12);
}

TEST(Rake, MrcRecoversDispersedSymbol) {
  // One symbol spread over three delayed copies; MRC must rebuild +1/-1.
  Rng rng(3);
  const channel::Cir cir = three_tap_cir();
  const std::size_t sps = 20;
  BitVec bits;
  const auto a = random_symbols(40, rng, &bits);
  // Build the waveform: each symbol contributes g_k at delay d_k.
  CplxVec y(40 * sps + 40, cplx{});
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (const auto& tap : cir.taps()) {
      const auto d = static_cast<std::size_t>(std::llround(tap.delay_s * 1e9));
      y[m * sps + d] += tap.gain * a[m];
    }
  }
  channel::add_awgn(y, 0.02, rng);
  const CplxWaveform w(y, 1e9);

  RakeConfig config;
  config.policy = FingerPolicy::kAll;
  const RakeReceiver rake(config, cir, 1e9);
  const auto soft = rake.demodulate(w, SymbolTiming{0, sps, 40});
  std::size_t errors = 0;
  for (std::size_t m = 0; m < 40; ++m) {
    if ((soft[m] < 0.0) != (bits[m] != 0)) ++errors;
  }
  EXPECT_EQ(errors, 0u);
}

TEST(Rake, MoreFingersMoreSnr) {
  // With taps of equal power, adding fingers raises the post-combining SNR;
  // check via soft-output statistics.
  Rng rng(4);
  const channel::Cir cir({{0.0, {0.6, 0.0}}, {3e-9, {0.0, 0.6}}, {7e-9, {0.6, 0.0}}});
  const std::size_t sps = 16;
  const auto a = random_symbols(600, rng);
  CplxVec y(600 * sps + 32, cplx{});
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (const auto& tap : cir.taps()) {
      const auto d = static_cast<std::size_t>(std::llround(tap.delay_s * 1e9));
      y[m * sps + d] += tap.gain * a[m];
    }
  }
  channel::add_awgn(y, 0.2, rng);
  const CplxWaveform w(y, 1e9);

  auto snr_of = [&](std::size_t fingers) {
    RakeConfig config;
    config.policy = FingerPolicy::kSelective;
    config.num_fingers = fingers;
    const RakeReceiver rake(config, cir, 1e9);
    const auto soft = rake.demodulate(w, SymbolTiming{0, sps, 600});
    double mean = 0.0;
    for (std::size_t m = 0; m < soft.size(); ++m) mean += soft[m] * a[m];
    mean /= soft.size();
    double var = 0.0;
    for (std::size_t m = 0; m < soft.size(); ++m) {
      var += std::pow(soft[m] * a[m] - mean, 2);
    }
    var /= soft.size();
    return mean * mean / var;
  };
  EXPECT_GT(snr_of(2), snr_of(1) * 1.3);
  EXPECT_GT(snr_of(3), snr_of(2) * 1.1);
}

// ------------------------------------------------------------------ mlse ----

TEST(Mlse, NoIsiReducesToSlicer) {
  Rng rng(5);
  BitVec bits;
  const auto a = random_symbols(100, rng, &bits);
  const std::vector<cplx> g = {cplx{1.0, 0.0}, cplx{}, cplx{}, cplx{}};
  const CplxWaveform y = make_isi_waveform(a, g, 8, 0.01, rng);
  const MlseDemodulator mlse(MlseConfig{3}, g);
  const BitVec decoded = mlse.demodulate(symbol_samples(y, 8, 100));
  EXPECT_EQ(decoded, bits);
}

TEST(Mlse, ResolvesSevereIsi) {
  // Channel g = [1, 0.9]: a slicer alone fails hopelessly; MLSE is clean.
  Rng rng(6);
  BitVec bits;
  const auto a = random_symbols(400, rng, &bits);
  const std::vector<cplx> g = {cplx{1.0, 0.0}, cplx{0.9, 0.0}};
  const CplxWaveform y = make_isi_waveform(a, g, 4, 0.02, rng);

  const MlseDemodulator mlse(MlseConfig{1}, g);
  const BitVec decoded = mlse.demodulate(symbol_samples(y, 4, 400));
  std::size_t mlse_errors = 0;
  for (std::size_t m = 0; m < bits.size(); ++m) {
    if (decoded[m] != bits[m]) ++mlse_errors;
  }

  // Slicer baseline on the same observations.
  std::size_t slicer_errors = 0;
  for (std::size_t m = 0; m < bits.size(); ++m) {
    const double v = y[m * 4].real();
    if ((v < 0.0) != (bits[m] != 0)) ++slicer_errors;
  }
  EXPECT_LE(mlse_errors, 2u);
  // When consecutive symbols differ (half the time) the slicer input is
  // +/-0.1 against sigma 0.1: P(err) ~ Q(1) = 0.16 -> ~32 expected errors.
  EXPECT_GT(slicer_errors, 20u);
}

// Local helper (avoid pulling phy just for hamming distance).
std::size_t bit_distance(const BitVec& x, const BitVec& y) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    if (x[i] != y[i]) ++d;
  }
  return d;
}

TEST(Mlse, ComplexChannelTaps) {
  Rng rng(7);
  BitVec bits;
  const auto a = random_symbols(300, rng, &bits);
  const std::vector<cplx> g = {cplx{0.8, 0.3}, cplx{-0.2, 0.45}, cplx{0.1, -0.1}};
  const CplxWaveform y = make_isi_waveform(a, g, 5, 0.01, rng);
  const MlseDemodulator mlse(MlseConfig{2}, g);
  const BitVec decoded = mlse.demodulate(symbol_samples(y, 5, 300));
  EXPECT_LE(bit_distance(decoded, bits), 1u);
}

TEST(Mlse, MemoryMustCoverChannel) {
  // Channel longer than the trellis memory: performance degrades but the
  // construction itself must reject mismatched g length.
  EXPECT_THROW(MlseDemodulator(MlseConfig{2}, {cplx{1.0, 0.0}}), InvalidArgument);
  EXPECT_THROW(MlseDemodulator(MlseConfig{0}, {cplx{1.0, 0.0}}), InvalidArgument);
}

}  // namespace
}  // namespace uwb::equalizer
