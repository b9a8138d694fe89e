// Tests for the transceiver layer: configurations, transmitters, power
// model, and single-packet receiver happy paths.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "channel/awgn.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "channel/saleh_valenzuela.h"
#include "dsp/fast_convolve.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/power_spectrum.h"
#include "pulse/band_plan.h"
#include "pulse/pulse_shape.h"
#include "rf/mixer.h"
#include "sim/scenario.h"
#include "stats/sampling.h"
#include "txrx/link.h"
#include "txrx/power_model.h"
#include "txrx/receiver_gen1.h"
#include "txrx/receiver_gen2.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {
namespace {

// --------------------------------------------------------------- configs ----

TEST(Config, Gen1PaperNumerology) {
  const Gen1Config config = sim::gen1_nominal();
  EXPECT_DOUBLE_EQ(config.adc_rate, 2e9);  // the 2 GSps converter
  EXPECT_EQ(config.adc_lanes, 4);          // 4-way interleaved
  // 2 GHz / 648 / 16 = 192.9 kbps ~ the paper's 193 kbps link.
  EXPECT_NEAR(config.bit_rate_hz(), 193e3, 1e3);
  // PN period = 127 frames = 41.1 us.
  EXPECT_NEAR(127.0 * 648.0 / 2e9, 41.1e-6, 0.2e-6);
}

TEST(Config, Gen2PaperNumerology) {
  const Gen2Config config = sim::gen2_nominal();
  EXPECT_DOUBLE_EQ(config.prf_hz, 100e6);
  EXPECT_DOUBLE_EQ(config.bit_rate_hz(), 100e6);  // 100 Mbps
  EXPECT_EQ(config.sar.bits, 5);                  // two 5-bit SARs
  EXPECT_EQ(config.chanest.quantization_bits, 4); // 4-bit CIR taps
  EXPECT_DOUBLE_EQ(config.pulse.bandwidth_hz, 500e6);
  EXPECT_EQ(config.samples_per_bit_adc(), 10u);
}

// ----------------------------------------------------------- transmitters ----

TEST(Gen1Transmitter, FrameLayout) {
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(1);
  const Gen1Train train = tx.transmit_train(rng.bits(32));
  const TxFrame& frame = train.frame;
  EXPECT_EQ(frame.preamble_bits, 127u);  // 1 repetition in the fast config
  EXPECT_GT(frame.energy_per_bit, 0.0);
  // Data bits: SFD(16) + header(32) + payload+CRC(64).
  EXPECT_EQ(frame.frame_bits.size(), 16u + 32u + 64u);
  // One slot per preamble chip and per spread pulse of each data bit.
  EXPECT_EQ(train.amplitudes.size(),
            frame.preamble_bits +
                frame.frame_bits.size() * static_cast<std::size_t>(config.pulses_per_bit));
}

TEST(Gen1Transmitter, PreambleChipsAreAntipodal) {
  const Gen1Transmitter tx(sim::gen1_nominal());
  EXPECT_EQ(tx.preamble_chips().size(), 127u);
  for (double c : tx.preamble_chips()) {
    EXPECT_TRUE(c == 1.0 || c == -1.0);
  }
  EXPECT_EQ(tx.preamble_frames(), 254u);  // 2 repetitions
}

TEST(Gen1Link, SparseChannelPathMatchesDenseConvolution) {
  // The fast multipath path applies the channel as shift-adds of the
  // composite kernel g = prototype (x) CIR; convolution distributes over
  // the slot sum, so it must equal the dense train through the channel's
  // real taps to rounding.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(11);
  const Gen1Train train = tx.transmit_train(rng.bits(32));
  const RealVec& proto = tx.prototype().samples();
  const std::size_t frame_samples = config.frame_samples_analog();
  RealVec wave(frame_samples * train.amplitudes.size() + proto.size(), 0.0);
  for (std::size_t s = 0; s < train.amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      wave[s * frame_samples + i] += train.amplitudes[s] * proto[i];
    }
  }

  channel::SvParams params = channel::cm_by_index(3);
  params.complex_phases = false;
  const channel::Cir cir = channel::SalehValenzuela(params).realize(rng);

  // The direct kernels are the exact reference.
  const CplxVec hc = cir.sampled(config.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  const RealVec dense = dsp::convolve_direct(wave, hr);
  const RealVec g = dsp::convolve_direct(proto, hr);

  RealVec sparse(frame_samples * train.amplitudes.size() + g.size(), 0.0);
  for (std::size_t s = 0; s < train.amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      sparse[s * frame_samples + i] += train.amplitudes[s] * g[i];
    }
  }
  ASSERT_EQ(sparse.size(), dense.size());
  double peak = 0.0;
  for (double v : sparse) peak = std::max(peak, std::abs(v));
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    ASSERT_NEAR(sparse[i], dense[i], 1e-9 * std::max(1.0, peak)) << "sample " << i;
  }
}

TEST(Gen2Transmitter, FrameLayoutBpsk) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  Rng rng(2);
  const Gen2Train train = tx.transmit_train(rng.bits(100));
  const TxFrame& frame = train.frame;
  // Overhead: preamble (63*2) + SFD 16 + header 32.
  EXPECT_EQ(frame.overhead_symbols, 126u + 16u + 32u);
  EXPECT_EQ(frame.payload_symbols, 132u);  // payload + CRC-32, BPSK
  EXPECT_EQ(frame.body_bits, 132u);
  EXPECT_EQ(train.amplitudes.size(), frame.overhead_symbols + frame.payload_symbols);
  EXPECT_EQ(train.length, train.amplitudes.size() * frame.samples_per_bit +
                              tx.prototype().size());
  EXPECT_GT(frame.energy_per_bit, 0.0);
}

TEST(Gen2Transmitter, OccupiedBandwidthIs500MHz) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  Rng rng(3);
  const Gen2Train train = tx.transmit_train(rng.bits(400));
  RealVec dense(train.length);
  tx.synthesize(train, 0, dense.size(), dense.data());
  CplxVec wave(dense.size());
  for (std::size_t k = 0; k < dense.size(); ++k) wave[k] = cplx(dense[k], 0.0);
  const dsp::Psd psd = dsp::welch_psd(CplxWaveform(wave, config.analog_fs), 1024);
  const double bw = dsp::bandwidth_at_level(psd, -10.0);
  EXPECT_NEAR(bw, 500e6, 150e6);
}

TEST(Upconverter, PassbandSynthesisAtChannel) {
  // A gen-2 BPSK pulse train synthesized at 20 GS/s and upconverted to
  // band-plan channel 4 (~5 GHz, Fig. 4) peaks at that channel's center.
  const Gen2Config config = sim::gen2_fast();
  const double rf_fs = 20e9;
  pulse::PulseSpec spec = config.pulse;
  spec.sample_rate_hz = rf_fs;
  const RealWaveform proto = pulse::make_pulse(spec);
  const auto frame = static_cast<std::size_t>(rf_fs / config.prf_hz);
  Rng rng(4);
  CplxVec bb(frame * 80 + proto.size(), cplx{});
  for (std::size_t m = 0; m < 80; ++m) {
    const double a = rng.sign();
    for (std::size_t i = 0; i < proto.size(); ++i) bb[m * frame + i] += a * proto[i];
  }
  const pulse::BandPlan plan;
  const rf::Upconverter up(plan.center_frequency(4), rf_fs, config.front_end.iq);
  const RealWaveform rf = up.process(CplxWaveform(bb, rf_fs));
  EXPECT_DOUBLE_EQ(rf.sample_rate(), rf_fs);
  const dsp::Psd psd = dsp::welch_psd(rf, 4096);
  EXPECT_NEAR(psd.freq_hz[psd.peak_bin()], plan.center_frequency(4), 500e6);
}

TEST(Gen2Transmitter, PreambleTemplateMatchesConfig) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  const CplxVec tmpl = tx.preamble_template_adc();
  // 126 preamble symbols at 10 samples/bit plus the pulse tail.
  EXPECT_GT(tmpl.size(), 1260u);
  EXPECT_LT(tmpl.size(), 1400u);
}

// ------------------------------------------------------------ power model ----

TEST(PowerModel, Gen1AdcPlusDigitalDominate) {
  const PowerBreakdown bd = gen1_power(sim::gen1_nominal());
  EXPECT_GT(bd.total_w(), 0.0);
  // The paper's claim: more than half in the ADC + digital back end.
  EXPECT_GT(bd.adc_plus_digital_fraction(), 0.5);
}

TEST(PowerModel, Gen2AdcPlusDigitalDominate) {
  const PowerBreakdown bd = gen2_power(sim::gen2_nominal());
  EXPECT_GT(bd.adc_plus_digital_fraction(), 0.5);
}

TEST(PowerModel, MlseCostScalesWithStates) {
  Gen2Config small = sim::gen2_nominal();
  small.mlse.memory = 2;
  Gen2Config big = small;
  big.mlse.memory = 6;
  const double p_small = gen2_power(small).group_w("Digital");
  const double p_big = gen2_power(big).group_w("Digital");
  EXPECT_GT(p_big, p_small);
}

TEST(PowerModel, EnergyPerBitTradeoff) {
  // Fewer RAKE fingers and no MLSE = less energy per bit.
  Gen2Config lean = sim::gen2_nominal();
  lean.rake.num_fingers = 2;
  lean.use_mlse = false;
  lean.mlse.memory = 1;
  Gen2Config rich = sim::gen2_nominal();
  rich.rake.num_fingers = 16;
  rich.mlse.memory = 6;
  EXPECT_LT(gen2_energy_per_bit_j(lean), gen2_energy_per_bit_j(rich));
}

TEST(PowerModel, AdcPowerScalesWithBits) {
  Gen2Config b4 = sim::gen2_nominal();
  b4.sar.bits = 4;
  Gen2Config b6 = sim::gen2_nominal();
  b6.sar.bits = 6;
  EXPECT_NEAR(gen2_power(b6).group_w("ADC") / gen2_power(b4).group_w("ADC"), 4.0, 0.01);
}

// -------------------------------------------------------- receiver smoke ----

TEST(Gen2Receiver, CleanPacketZeroErrors) {
  const Gen2Config config = sim::gen2_fast();
  Gen2Link link(config, 0xBEEF);
  txrx::TrialOptions options;
  options.ebn0_db = 25.0;  // essentially clean
  options.payload_bits = 64;
  options.cm = 0;
  const Gen2TrialResult trial = link.run_packet_full(options);
  EXPECT_TRUE(trial.rx.acquired);
  EXPECT_EQ(trial.outcome.errors, 0u)
      << "ber=" << static_cast<double>(trial.outcome.errors) / trial.outcome.bits;
  EXPECT_GT(trial.rx.rake_energy_capture, 0.5);
}

TEST(Gen2Receiver, MultipathPacketDecodes) {
  const Gen2Config config = sim::gen2_fast();
  Gen2Link link(config, 0xCAFE);
  txrx::TrialOptions options;
  options.ebn0_db = 22.0;
  options.payload_bits = 64;
  options.cm = 1;  // mild LOS multipath
  std::size_t total_bits = 0, total_errors = 0;
  for (int p = 0; p < 5; ++p) {
    const Gen2TrialResult trial = link.run_packet_full(options);
    total_bits += trial.outcome.bits;
    total_errors += trial.outcome.errors;
  }
  EXPECT_LT(static_cast<double>(total_errors) / static_cast<double>(total_bits), 0.02);
}

TEST(Gen2Link, CompositeKernelCaptureMatchesDenseChannelConvolution) {
  // The channel leg synthesizes y[n] = sum_m a_m * g[n - delay - offset_m]
  // with the composite kernel g = prototype (x) CIR. For every modulation
  // and CM profile it must equal the delayed dense train convolved with
  // Cir::sampled to 1e-12 of the peak -- bit for bit through the identity
  // (AWGN) channel -- followed by the zero tail pad.
  const std::size_t delay = 17;
  const std::size_t pad = 256;
  for (const phy::Modulation mod : {phy::Modulation::kBpsk, phy::Modulation::kOok,
                                    phy::Modulation::kPpm, phy::Modulation::kPam4}) {
    Gen2Config config = sim::gen2_fast();
    config.modulation = mod;
    const Gen2Transmitter tx(config);
    Rng rng(0xC0DE + static_cast<uint64_t>(mod));
    const Gen2Train train = tx.transmit_train(rng.bits(120));
    RealVec dense(train.length);
    tx.synthesize(train, 0, dense.size(), dense.data());
    CplxVec wave(delay + dense.size(), cplx{});
    for (std::size_t k = 0; k < dense.size(); ++k) wave[delay + k] = cplx(dense[k], 0.0);
    for (int cm = 0; cm <= 4; ++cm) {
      const channel::Cir cir =
          cm == 0 ? channel::identity_cir()
                  : channel::SalehValenzuela(channel::cm_by_index(cm)).realize(rng);
      const CplxVec want = dsp::convolve_direct(wave, cir.sampled(config.analog_fs));
      dsp::IqArena g;
      dsp::IqArena rx;
      gen2_composite_kernel(tx.prototype().samples(), cir, config.analog_fs, g);
      gen2_synthesize_capture(train, delay, tx.prototype().size(), g, pad, rx);
      ASSERT_EQ(rx.size(), want.size() + pad) << phy::to_string(mod) << " CM" << cm;
      double peak = 0.0;
      for (const cplx& v : want) peak = std::max(peak, std::abs(v));
      for (std::size_t k = 0; k < want.size(); ++k) {
        if (cm == 0) {
          ASSERT_EQ(rx.i[k], want[k].real()) << phy::to_string(mod) << " sample " << k;
          ASSERT_EQ(rx.q[k], want[k].imag()) << phy::to_string(mod) << " sample " << k;
        } else {
          ASSERT_NEAR(rx.i[k], want[k].real(), 1e-12 * peak)
              << phy::to_string(mod) << " CM" << cm << " sample " << k;
          ASSERT_NEAR(rx.q[k], want[k].imag(), 1e-12 * peak)
              << phy::to_string(mod) << " CM" << cm << " sample " << k;
        }
      }
      for (std::size_t k = want.size(); k < rx.size(); ++k) {
        ASSERT_EQ(rx.i[k], 0.0);
        ASSERT_EQ(rx.q[k], 0.0);
      }
    }
  }
}

/// The scatter loops dsp::shifted_sum replaced, kept here as the reference
/// its bits must equal: every output starts at +0.0 and gathers the same
/// products in ascending slot (or prototype-sample) order.
void scatter_composite_kernel(const RealVec& prototype, const channel::Cir& cir, double fs,
                              RealVec& gi, RealVec& gq) {
  const CplxVec h = cir.sampled(fs);
  gi.assign(h.empty() ? 0 : prototype.size() + h.size() - 1, 0.0);
  gq.assign(gi.size(), 0.0);
  for (std::size_t i = 0; i < prototype.size() && !h.empty(); ++i) {
    for (std::size_t k = 0; k < h.size(); ++k) {
      gi[i + k] += prototype[i] * h[k].real();
      gq[i + k] += prototype[i] * h[k].imag();
    }
  }
}

void scatter_capture(const Gen2Train& train, std::size_t delay, std::size_t proto_len,
                     const RealVec& g, std::size_t pad, RealVec& y) {
  y.assign(delay + train.length - proto_len + g.size() + pad, 0.0);
  for (std::size_t m = 0; m < train.amplitudes.size(); ++m) {
    double* ym = y.data() + delay + train.offsets[m];
    for (std::size_t k = 0; k < g.size(); ++k) ym[k] += train.amplitudes[m] * g[k];
  }
}

void scatter_train(const Gen2Train& train, const RealVec& pulse, std::size_t first,
                   std::size_t count, RealVec& out) {
  out.assign(count, 0.0);
  const std::size_t end = first + count;
  for (std::size_t m = 0; m < train.amplitudes.size(); ++m) {
    const std::size_t base = train.offsets[m];
    if (base >= end || base + pulse.size() <= first) continue;
    const std::size_t lo = std::max(base, first);
    const std::size_t hi = std::min(base + pulse.size(), end);
    for (std::size_t n = lo; n < hi; ++n) out[n - first] += train.amplitudes[m] * pulse[n - base];
  }
}

/// Bitwise equality of \p n doubles, relaxed to rounding (relative to
/// \p scale) only where an FMA-capable -march=native build may fuse the
/// kernel and the reference differently.
void expect_same_bits(const double* got, const double* want, std::size_t n,
                      [[maybe_unused]] double scale, const std::string& what) {
  for (std::size_t k = 0; k < n; ++k) {
#ifdef __FMA__
    ASSERT_NEAR(got[k], want[k], 1e-12 * scale) << what << ", sample " << k;
#else
    ASSERT_EQ(std::bit_cast<uint64_t>(got[k]), std::bit_cast<uint64_t>(want[k]))
        << what << ", sample " << k << ": " << got[k] << " vs " << want[k];
#endif
  }
}

double peak_of(const RealVec& x) {
  double peak = 0.0;
  for (const double v : x) peak = std::max(peak, std::abs(v));
  return peak;
}

TEST(Gen2Link, ShiftedSumMatchesTheScatterLoopsBitForBit) {
  // The composite kernel, the capture and the dense train are each one
  // dsp::shifted_sum per rail: every modulation, CM0-4, delay 0 and 17,
  // with a tail pad, and train windows that are not block multiples.
  const std::size_t pad = 256;
  for (const phy::Modulation mod : {phy::Modulation::kBpsk, phy::Modulation::kOok,
                                    phy::Modulation::kPpm, phy::Modulation::kPam4}) {
    Gen2Config config = sim::gen2_fast();
    config.modulation = mod;
    const Gen2Transmitter tx(config);
    Rng rng(0x5EED + static_cast<uint64_t>(mod));
    const Gen2Train train = tx.transmit_train(rng.bits(120));
    const RealVec& pulse = tx.prototype().samples();
    const std::string name = phy::to_string(mod);

    RealVec want;
    RealVec got;
    for (const auto& [first, count] : std::vector<std::pair<std::size_t, std::size_t>>{
             {0, train.length}, {0, 1}, {5, 37}, {33, 1000}, {train.length - 45, 45}}) {
      scatter_train(train, pulse, first, count, want);
      got.assign(count, -7.0);
      tx.synthesize(train, first, count, got.data());
      expect_same_bits(got.data(), want.data(), count, peak_of(want),
                       name + " train [" + std::to_string(first) + ", +" +
                           std::to_string(count) + ")");
    }

    for (int cm = 0; cm <= 4; ++cm) {
      const channel::Cir cir =
          cm == 0 ? channel::identity_cir()
                  : channel::SalehValenzuela(channel::cm_by_index(cm)).realize(rng);
      const std::string what = name + " CM" + std::to_string(cm);
      RealVec want_i;
      RealVec want_q;
      scatter_composite_kernel(pulse, cir, config.analog_fs, want_i, want_q);
      dsp::IqArena g;
      gen2_composite_kernel(pulse, cir, config.analog_fs, g);
      ASSERT_EQ(g.size(), want_i.size()) << what;
      expect_same_bits(g.i.data(), want_i.data(), g.size(), peak_of(want_i), what + " g.i");
      expect_same_bits(g.q.data(), want_q.data(), g.size(), peak_of(want_q), what + " g.q");

      for (const std::size_t delay : {std::size_t{0}, std::size_t{17}}) {
        RealVec y_i;
        RealVec y_q;
        scatter_capture(train, delay, pulse.size(), want_i, pad, y_i);
        scatter_capture(train, delay, pulse.size(), want_q, pad, y_q);
        dsp::IqArena rx;
        rx.resize(y_i.size() + 100);
        std::fill(rx.i.begin(), rx.i.end(), -7.0);  // stale contents must not leak
        std::fill(rx.q.begin(), rx.q.end(), -7.0);
        gen2_synthesize_capture(train, delay, pulse.size(), g, pad, rx);
        ASSERT_EQ(rx.size(), y_i.size()) << what;
        const std::string at = what + " delay " + std::to_string(delay);
        expect_same_bits(rx.i.data(), y_i.data(), rx.size(), peak_of(y_i), at + " rx.i");
        expect_same_bits(rx.q.data(), y_q.data(), rx.size(), peak_of(y_q), at + " rx.q");
      }
    }
  }
}

TEST(Gen2Link, CodedTrialLeavesTheReceiverConfigAlone) {
  // Coded trials bypass the MLSE per packet through Gen2RxOptions, so the
  // link's receiver config is never touched: an uncoded trial after a
  // coded one matches the same trial on a fresh link.
  const Gen2Config config = sim::gen2_fast();
  TrialOptions coded;
  coded.cm = 1;
  coded.ebn0_db = 8.0;
  coded.payload_bits = 64;
  coded.fec = fec::k7_rate_half();
  TrialOptions uncoded = coded;
  uncoded.fec.reset();

  Gen2Link used(config, 5);
  Rng coded_rng(91);
  (void)used.run_packet(coded, coded_rng);
  EXPECT_TRUE(used.receiver().config().use_mlse);

  Gen2Link fresh(config, 5);
  Rng rng_used(92);
  Rng rng_fresh(92);
  const Gen2TrialResult after = used.run_packet_full(uncoded, rng_used);
  const Gen2TrialResult clean = fresh.run_packet_full(uncoded, rng_fresh);
  EXPECT_EQ(after.outcome.bits, clean.outcome.bits);
  EXPECT_EQ(after.outcome.errors, clean.outcome.errors);
  EXPECT_EQ(after.rx.payload, clean.rx.payload);
  EXPECT_EQ(after.rx.payload_soft, clean.rx.payload_soft);
  EXPECT_EQ(after.rx.snr_estimate_db, clean.rx.snr_estimate_db);
}

TEST(Gen1Receiver, CleanPacketZeroErrors) {
  const Gen1Config config = sim::gen1_fast();
  Gen1Link link(config, 0xF00D);
  txrx::TrialOptions options;
  options.ebn0_db = 20.0;
  options.payload_bits = 16;
  options.genie_timing = true;
  const Gen1TrialResult trial = link.run_packet_full(options);
  EXPECT_EQ(trial.outcome.errors, 0u);
  EXPECT_GT(trial.outcome.bits, 0u);
}

/// Bitwise equality of two trial records: counts, metric names and value
/// bits, weight bits.
void expect_same_outcome(const sim::TrialOutcome& a, const sim::TrialOutcome& b,
                         const std::string& where) {
  EXPECT_EQ(a.bits, b.bits) << where;
  EXPECT_EQ(a.errors, b.errors) << where;
  EXPECT_EQ(a.weighted, b.weighted) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.log_weight), std::bit_cast<uint64_t>(b.log_weight))
      << where;
  ASSERT_EQ(a.metrics.size(), b.metrics.size()) << where;
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].first, b.metrics[i].first) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.metrics[i].second),
              std::bit_cast<uint64_t>(b.metrics[i].second))
        << where << " metric " << a.metrics[i].first;
  }
}

/// The gen-1 anti-alias FIR's taps, reversed and in float: what the
/// receiver's FIR runs.
std::vector<float> gen1_anti_alias_taps(const Gen1Config& config) {
  const RealVec taps = dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
  return {taps.rbegin(), taps.rend()};
}

/// A of ADC \p block of an \p n-sample capture, measured the slow way:
/// a unit impulse at each analog input near the block pushed through the
/// receiver's FIR (dsp::convolve_same_range) and lane interpolation
/// (LanePlan::sample_to). Row-major, m x cols; inputs the block does not
/// read give zero columns.
struct ConverterMap {
  std::size_t m = 0;
  std::size_t cols = 0;
  std::vector<double> a;
};

ConverterMap measure_converter_map(const Gen1Receiver& rx, double fs, AdcWindow block,
                                   std::size_t n) {
  const std::optional<Gen1Receiver::LanePlan> plan = rx.lane_plan(fs);
  EXPECT_TRUE(plan.has_value());
  const std::vector<float> taps = gen1_anti_alias_taps(rx.config());
  const std::size_t c_lo = block.begin * plan->stride > 100 ? block.begin * plan->stride - 100 : 0;
  const std::size_t c_hi = std::min(n, block.end * plan->stride + 100);
  const auto [first, last] = plan->input_span(block.begin, block.end, n);
  ConverterMap map;
  map.m = block.end - block.begin;
  map.cols = c_hi - c_lo;
  map.a.assign(map.m * map.cols, 0.0);
  std::vector<float> x(n, 0.0f);
  std::vector<float> y(last - first);
  std::vector<float> col(map.m);
  for (std::size_t c = c_lo; c < c_hi; ++c) {
    x[c] = 1.0f;
    dsp::convolve_same_range(x.data(), n, taps.data(), taps.size(), first, last, y.data());
    plan->sample_to(y.data(), n, block.begin, block.end, col.data());
    for (std::size_t i = 0; i < map.m; ++i) map.a[i * map.cols + (c - c_lo)] = col[i];
    x[c] = 0.0f;
  }
  return map;
}

/// A * A^T of \p map, row-major m x m.
std::vector<double> gram(const ConverterMap& map) {
  std::vector<double> g(map.m * map.m, 0.0);
  for (std::size_t i = 0; i < map.m; ++i) {
    for (std::size_t j = 0; j < map.m; ++j) {
      for (std::size_t c = 0; c < map.cols; ++c) {
        g[i * map.m + j] += map.a[i * map.cols + c] * map.a[j * map.cols + c];
      }
    }
  }
  return g;
}

/// gen1_fast with the lane skews large enough that each lane interpolates
/// at a visibly different fraction.
Gen1Config skewed_gen1() {
  Gen1Config config = sim::gen1_fast();
  config.interleave.timing_skew_sigma_s = 40e-12;
  return config;
}

TEST(Gen1Receiver, NoiseFactorReproducesTheConverterCovariance) {
  // whiten() applies L^-1 block by block, so whitening the columns of
  // G = A * A^T gives U = L^-1 G = L^T: U must be upper-triangular and
  // U^T * U must equal G to 1e-9 relative, A measured by unit
  // impulses through the receiver's FIR and lane interpolation: a
  // 12-sample block at two places (one factor per length serves both), a
  // longer block, and the block decision_blocks() merges a bit's 16
  // windows into when frames are 8 samples apart and their FIR inputs
  // overlap. A block reading past the capture has none.
  Gen1Config config = skewed_gen1();
  config.frame_samples_adc = 8;
  Rng mismatch(0x5CE);
  Gen1Receiver rx(config, mismatch);
  const Gen1Transmitter tx(config);
  const double fs = config.analog_fs;
  const std::optional<Gen1Receiver::LanePlan> plan = rx.lane_plan(fs);
  ASSERT_TRUE(plan.has_value());
  bool lanes_differ = false;
  for (std::size_t l = 1; l < plan->num_lanes; ++l) {
    lanes_differ = lanes_differ || plan->w1[l] != plan->w1[0] || plan->off[l] != plan->off[0];
  }
  EXPECT_TRUE(lanes_differ) << "the lanes should be skewed";
  constexpr std::size_t n = 3000;
  const std::size_t n_adc = n / plan->stride;
  std::vector<double> probe(12, 1.0);
  const AdcWindow head[] = {{0, 12}};
  const AdcWindow tail[] = {{n_adc - 12, n_adc}};
  EXPECT_THROW(rx.whiten(head, n, fs, probe.data()), InvalidArgument);
  EXPECT_THROW(rx.whiten(tail, n, fs, probe.data()), InvalidArgument);
  Gen1RxOptions genie;
  genie.genie_timing = true;
  const std::vector<AdcWindow> merged(rx.decision_blocks(n, fs, tx, 1, genie).begin(),
                                      rx.decision_blocks(n, fs, tx, 1, genie).end());
  ASSERT_EQ(merged.size(), 1u);
  const std::size_t data_start = tx.preamble_frames() * config.frame_samples_adc;
  EXPECT_EQ(merged.front().begin, data_start);
  EXPECT_EQ(merged.front().end, data_start + 15 * config.frame_samples_adc + 12);
  EXPECT_TRUE(rx.decision_blocks(n, fs, tx, 2, genie).empty())
      << "a merged block past kMaxBlockSamples reads the capture densely";
  const AdcWindow blocks[] = {{400, 412}, {1200, 1212}, {600, 636}, merged.front()};
  for (const AdcWindow& block : blocks) {
    const std::string where = "block [" + std::to_string(block.begin) + ", " +
                              std::to_string(block.end) + ")";
    const std::vector<double> want = gram(measure_converter_map(rx, fs, block, n));
    const std::size_t m = block.end - block.begin;
    double scale = 0.0;
    for (const double v : want) scale = std::max(scale, std::abs(v));
    ASSERT_GT(scale, 0.0) << where;
    // u[j * m + i] = U(i, j): column j of G, whitened.
    std::vector<double> u(want);
    const AdcWindow one[] = {block};
    for (std::size_t j = 0; j < m; ++j) rx.whiten(one, n, fs, u.data() + j * m);
    double worst = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        double utu = 0.0;
        for (std::size_t k = 0; k < m; ++k) utu += u[i * m + k] * u[j * m + k];
        worst = std::max(worst, std::abs(utu - want[i * m + j]) / scale);
        if (i > j) worst = std::max(worst, std::abs(u[j * m + i]) / std::sqrt(scale));
      }
    }
    EXPECT_LT(worst, 1e-9) << where;
  }
}

std::vector<std::pair<std::size_t, std::size_t>> as_pairs(std::span<const AdcWindow> blocks) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const AdcWindow& block : blocks) pairs.emplace_back(block.begin, block.end);
  return pairs;
}

TEST(Gen1Receiver, DecisionBlocksKeepTheirPlanPerInputs) {
  // decision_blocks() keeps its plan for one set of inputs: every call must
  // equal a fresh receiver's plan for the same inputs, whether it repeats
  // the last inputs (the kept plan) or changes the capture length, the
  // genie offset, the bit count or the timing (a new plan, which here
  // differs from the one before it).
  const Gen1Config config = sim::gen1_fast();
  Rng mismatch(0xB10C);
  Gen1Receiver rx(config, mismatch);
  const Gen1Transmitter tx(config);
  const double fs = config.analog_fs;
  const std::size_t stride = rx.lane_plan(fs)->stride;
  const auto ppb = static_cast<std::size_t>(config.pulses_per_bit);
  constexpr std::size_t kBits = 4;
  const std::size_t frame = config.frame_samples_adc * stride;
  const std::size_t n = (tx.preamble_frames() + (kBits + 1) * ppb) * frame;
  const std::size_t n_cut = (tx.preamble_frames() + kBits * ppb - 1) * frame;
  struct Call {
    std::size_t n;
    std::size_t offset;
    std::size_t bits;
    bool genie;
    bool changes;  ///< the plan differs from the previous call's
  };
  const Call calls[] = {{n, 0, kBits, true, true},         {n, 0, kBits, true, false},
                        {n_cut, 0, kBits, true, true},     {n, 0, kBits, true, true},
                        {n, 5, kBits, true, true},         {n, 5, kBits - 1, true, true},
                        {n, 5, kBits - 1, false, true},    {n, 0, kBits, true, true},
                        {n, 0, kBits, true, false}};
  std::vector<std::pair<std::size_t, std::size_t>> previous;
  for (std::size_t i = 0; i < std::size(calls); ++i) {
    SCOPED_TRACE(i);
    const Call& call = calls[i];
    Gen1RxOptions options;
    options.genie_timing = call.genie;
    options.genie_offset = call.offset;
    Rng fresh_mismatch(0xB10C);
    Gen1Receiver fresh(config, fresh_mismatch);
    const auto want = as_pairs(fresh.decision_blocks(call.n, fs, tx, call.bits, options));
    const auto got = as_pairs(rx.decision_blocks(call.n, fs, tx, call.bits, options));
    EXPECT_EQ(got, want);
    EXPECT_EQ(want != previous, call.changes);
    if (i == 0) {
      ASSERT_FALSE(want.empty()) << "the first call must plan converter blocks";
    }
    previous = want;
  }
}

/// A converter-path capture copied out of the thread's arenas.
struct ConverterSamples {
  std::vector<AdcWindow> blocks;
  std::vector<float> values;
  std::size_t length = 0;
  double n0 = 0.0;
};

ConverterSamples synthesize_converter(Gen1Link& link, const TrialOptions& options, Rng rng) {
  const Gen1Link::Capture cap = link.synthesize_capture(options, TrialContext{}, rng);
  ConverterSamples out;
  out.blocks.assign(cap.converter.blocks.begin(), cap.converter.blocks.end());
  out.values.assign(cap.converter.values.begin(), cap.converter.values.end());
  out.length = cap.length;
  out.n0 = cap.rx.agc.n0;
  EXPECT_TRUE(cap.samples.empty()) << "a converter-path trial has no analog samples";
  return out;
}

TEST(Gen1Link, ConverterWindowsMatchTheDenseCaptureSampled) {
  // Noise off, a genie-timed trial's converter samples -- pulse images
  // landed block by block -- must equal the dense path's analog capture of
  // the same trial pushed through the receiver's FIR and lane
  // interpolation, to 1e-5 of the trial's largest sample: AWGN, CM1,
  // start-delayed trials, and a frame shorter than the CM1 kernel (pulses
  // overlap, and odd frames put the pulses on several lane phases).
  Gen1Config short_frames = sim::gen1_fast();
  short_frames.frame_samples_adc = 101;
  struct Case {
    const char* name;
    Gen1Config config;
    int cm;
    std::size_t delay_max_frames;
  };
  const Case cases[] = {{"awgn", sim::gen1_fast(), 0, 0},
                        {"awgn-delayed", skewed_gen1(), 0, 40},
                        {"cm1", sim::gen1_fast(), 1, 12},
                        {"cm1-short-frames", short_frames, 1, 7}};
  for (const Case& c : cases) {
    TrialOptions options = default_options(Generation::kGen1);
    options.payload_bits = 24;
    options.ebn0_db = std::numeric_limits<double>::infinity();  // N0 = 0
    options.cm = c.cm;
    options.start_delay_max_frames = c.delay_max_frames;
    const Rng root(0xD1CE);
    for (uint64_t trial = 0; trial < 3; ++trial) {
      const std::string where = std::string(c.name) + " trial " + std::to_string(trial);
      Gen1Link link(c.config, 0x51DE);
      const ConverterSamples conv = synthesize_converter(link, options, root.fork(trial));
      ASSERT_GT(conv.blocks.size(), 1u) << where;
      EXPECT_EQ(conv.n0, 0.0) << where;
      TrialOptions dense_options = options;
      dense_options.genie_timing = false;
      Rng rng = root.fork(trial);
      const Gen1Link::Capture dense = link.synthesize_capture(dense_options, TrialContext{}, rng);
      ASSERT_EQ(dense.samples.size(), conv.length) << where;
      ASSERT_TRUE(dense.converter.blocks.empty()) << where;

      const std::optional<Gen1Receiver::LanePlan> plan =
          link.receiver().lane_plan(c.config.analog_fs);
      const std::vector<float> taps = gen1_anti_alias_taps(c.config);
      const std::size_t n = dense.samples.size();
      std::vector<float> sampled;
      for (const AdcWindow& block : conv.blocks) {
        const auto [first, last] = plan->input_span(block.begin, block.end, n);
        std::vector<float> y(last - first);
        dsp::convolve_same_range(dense.samples.data(), n, taps.data(), taps.size(), first, last,
                                 y.data());
        std::vector<float> out(block.end - block.begin);
        plan->sample_to(y.data(), n, block.begin, block.end, out.data());
        sampled.insert(sampled.end(), out.begin(), out.end());
      }
      ASSERT_EQ(sampled.size(), conv.values.size()) << where;
      double scale = 0.0;
      for (const float v : sampled) scale = std::max(scale, std::abs(static_cast<double>(v)));
      ASSERT_GT(scale, 0.0) << where;
      double worst = 0.0;
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        worst = std::max(worst, std::abs(static_cast<double>(conv.values[i]) - sampled[i]));
      }
      EXPECT_LT(worst, 1e-5 * scale) << where;
    }
  }
}

TEST(Gen1Link, ConverterNoiseCovarianceLiesInsideItsInterval) {
  // The converter path's noise -- a trial's samples minus the same trial's
  // noiseless samples -- over ~25k independent 12-sample blocks must have
  // the covariance (N0/2) * A * A^T, A measured by unit impulses: each
  // entry inside its 5-sigma interval (Bonferroni over the 78 distinct
  // entries at a family level near 1e-4), skewed lanes, fixed seeds.
  const Gen1Config config = skewed_gen1();
  TrialOptions noisy = default_options(Generation::kGen1);
  noisy.payload_bits = 48;
  noisy.ebn0_db = 0.0;
  TrialOptions clean = noisy;
  clean.ebn0_db = std::numeric_limits<double>::infinity();
  Gen1Link link(config, 0xC0F);
  const Rng root(0xC0DE);
  std::size_t m = 0;
  std::vector<double> sum_xx;
  std::size_t draws = 0;
  ConverterSamples first;
  for (uint64_t trial = 0; trial < 12; ++trial) {
    const ConverterSamples with = synthesize_converter(link, noisy, root.fork(trial));
    const ConverterSamples without = synthesize_converter(link, clean, root.fork(trial));
    ASSERT_EQ(with.values.size(), without.values.size());
    if (trial == 0) {
      first = with;
      m = with.blocks.front().end - with.blocks.front().begin;
      sum_xx.assign(m * m, 0.0);
    }
    std::size_t offset = 0;
    for (const AdcWindow& block : with.blocks) {
      ASSERT_EQ(block.end - block.begin, m);
      const float* a = with.values.data() + offset;
      const float* b = without.values.data() + offset;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          sum_xx[i * m + j] +=
              (static_cast<double>(a[i]) - b[i]) * (static_cast<double>(a[j]) - b[j]);
        }
      }
      ++draws;
      offset += m;
    }
  }
  ASSERT_GE(draws, 20000u);
  const std::vector<double> aat = gram(measure_converter_map(
      link.receiver(), config.analog_fs, first.blocks[first.blocks.size() / 2], first.length));
  const double sigma2 = 0.5 * first.n0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double want = sigma2 * aat[i * m + j];
      const double got = sum_xx[i * m + j] / static_cast<double>(draws);
      const double var_i = sigma2 * aat[i * m + i];
      const double var_j = sigma2 * aat[j * m + j];
      const double se = std::sqrt((var_i * var_j + want * want) / static_cast<double>(draws));
      EXPECT_LT(std::abs(got - want), 5.0 * se) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(Gen1MfView, CursorReadsEqualFind) {
  // Over random run sets -- gaps between runs, runs of one output -- a
  // cursor's reads must return find()'s pointer for ascending reads
  // (repeats, gaps, indices before the first run and past the last), and
  // still do so when a read steps back.
  Rng rng(0xC5);
  for (int set = 0; set < 50; ++set) {
    std::vector<Gen1MfView::Run> runs;
    std::size_t next = rng.uniform_int(0, 5);
    std::size_t offset = 0;
    const int num_runs = rng.uniform_int(0, 12);
    for (int r = 0; r < num_runs; ++r) {
      const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 6));
      runs.push_back({next, next + len, offset});
      offset += len;
      next += len + static_cast<std::size_t>(rng.uniform_int(0, 4));
    }
    std::vector<float> values(offset);
    for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<float>(i);
    const Gen1MfView view{runs, values};
    Gen1MfView::Cursor cursor(view);
    std::size_t idx = 0;
    for (int read = 0; read < 80; ++read) {
      idx += static_cast<std::size_t>(rng.uniform_int(0, 3));
      if (rng.uniform_int(0, 9) == 0) idx -= std::min<std::size_t>(idx, rng.uniform_int(1, 8));
      EXPECT_EQ(cursor.at(idx), view.find(idx)) << "set " << set << " index " << idx;
    }
  }
}

TEST(Gen1Receiver, JitteredSamplerDigitizesTheWholeCapture) {
  // Aperture jitter draws the Rng once per ADC sample in stream order, so
  // even a genie-timed trial takes the dense path: the whole analog
  // capture, no converter blocks.
  Gen1Config config = sim::gen1_fast();
  config.aperture_jitter_rms_s = 2e-12;
  Gen1Link link(config, 0x717);
  TrialOptions options = default_options(Generation::kGen1);
  options.payload_bits = 8;
  Rng rng(3);
  const Gen1Link::Capture cap = link.synthesize_capture(options, TrialContext{}, rng);
  EXPECT_TRUE(cap.converter.blocks.empty());
  EXPECT_EQ(cap.samples.size(), cap.length);
  EXPECT_GT(cap.length, 0u);
  const Gen1TrialResult trial = link.receive_capture(cap, options, rng);
  EXPECT_EQ(trial.outcome.bits, trial.rx.bits_compared);
}

TEST(Gen1Link, LinksSharingAThreadsArenasRunAsIfAlone) {
  // The gen-1 capture arenas and the receiver's sample buffers belong to
  // the thread, shared by every gen-1 link it runs. Three links with
  // different options -- AWGN genie-timed converter blocks; CM1 with a
  // start delay and a dense acquisition pass over a longer capture; and an
  // importance-sampled, start-delayed CM1 genie link -- run interleaved on
  // one thread must give each trial the outcome it has when its link runs
  // alone.
  const Gen1Config config = sim::gen1_fast();
  TrialOptions awgn = default_options(Generation::kGen1);
  awgn.ebn0_db = 4.0;
  TrialOptions cm1 = default_options(Generation::kGen1);
  cm1.cm = 1;
  cm1.ebn0_db = 8.0;
  cm1.payload_bits = 48;
  cm1.start_delay_max_frames = 40;
  cm1.genie_timing = false;
  TrialOptions cm1_is = default_options(Generation::kGen1);
  cm1_is.cm = 1;
  cm1_is.ebn0_db = 6.0;
  cm1_is.start_delay_max_frames = 20;
  cm1_is.sampling.mode = stats::SamplingMode::kNoiseScale;
  cm1_is.sampling.scale = 3.0;
  constexpr std::size_t kTrials = 4;
  const auto trial_rng = [](uint64_t link_seed, std::size_t t) { return Rng(link_seed).fork(t); };
  const auto context_for = [](const TrialOptions& options, std::size_t t) {
    TrialContext context;
    if (options.sampling.active()) {
      context.noise_scale = 3.0;
      context.sampling_trial = t;
      context.sampling_resolved = true;
    }
    return context;
  };
  const auto run_alone = [&](const TrialOptions& options, uint64_t link_seed) {
    Gen1Link link(config, link_seed);
    std::vector<Gen1TrialResult> trials;
    for (std::size_t t = 0; t < kTrials; ++t) {
      Rng rng = trial_rng(link_seed, t);
      trials.push_back(link.run_packet_full(options, rng, context_for(options, t)));
    }
    return trials;
  };
  const std::vector<Gen1TrialResult> alone_awgn = run_alone(awgn, 0xA1);
  const std::vector<Gen1TrialResult> alone_cm1 = run_alone(cm1, 0xC1);
  const std::vector<Gen1TrialResult> alone_is = run_alone(cm1_is, 0x15);

  Gen1Link link_awgn(config, 0xA1);
  Gen1Link link_cm1(config, 0xC1);
  Gen1Link link_is(config, 0x15);
  const auto expect_as_alone = [](const Gen1TrialResult& got, const Gen1TrialResult& alone,
                                  const std::string& where) {
    expect_same_outcome(got.outcome, alone.outcome, where);
    EXPECT_EQ(got.rx.data_bits, alone.rx.data_bits) << where;
    EXPECT_EQ(got.rx.acq.timing_offset, alone.rx.acq.timing_offset) << where;
    EXPECT_EQ(got.true_offset_adc, alone.true_offset_adc) << where;
  };
  for (std::size_t t = 0; t < kTrials; ++t) {
    const std::string where = "trial " + std::to_string(t);
    Rng rng_cm1 = trial_rng(0xC1, t);
    expect_as_alone(link_cm1.run_packet_full(cm1, rng_cm1), alone_cm1[t], "cm1 " + where);
    Rng rng_is = trial_rng(0x15, t);
    expect_as_alone(link_is.run_packet_full(cm1_is, rng_is, context_for(cm1_is, t)),
                    alone_is[t], "cm1-is " + where);
    Rng rng_awgn = trial_rng(0xA1, t);
    expect_as_alone(link_awgn.run_packet_full(awgn, rng_awgn), alone_awgn[t], "awgn " + where);
  }
}

TEST(Gen1Link, PoisonedThreadBuffersChangeNoGenieTrial) {
  // A genie-timed trial synthesizes only the converter samples of the
  // blocks its decision reads. Run on a thread whose capture arenas and
  // receive buffers were first grown by dense and converter-path trials
  // and then filled with NaN, it must give the converter samples, the
  // matched-filter outputs, the trial record and the decoded bits it gives
  // on a fresh thread: AWGN, CM1, an importance-sampled trial, and a
  // start-delayed one.
  const Gen1Config config = sim::gen1_fast();
  struct Case {
    const char* name;
    int cm;
    bool sampled;
    std::size_t delay_max_frames;
  };
  const Case cases[] = {{"awgn", 0, false, 0},
                        {"cm1", 1, false, 12},
                        {"awgn-is", 0, true, 0},
                        {"awgn-delayed", 0, false, 40}};
  struct Observed {
    Gen1TrialResult trial;
    std::vector<uint32_t> converter_bits;
    std::vector<uint32_t> mf_bits;
  };
  const auto observe = [&](const Case& c, bool poison) {
    Observed seen;
    std::thread worker([&] {
      if (poison) {
        Gen1Link warm(config, 0x0BAD);
        TrialOptions dense = default_options(Generation::kGen1);
        dense.genie_timing = false;
        dense.payload_bits = 64;
        dense.start_delay_max_frames = 64;
        Rng warm_rng(5);
        (void)warm.run_packet_full(dense, warm_rng);
        TrialOptions wide = default_options(Generation::kGen1);
        wide.payload_bits = 96;
        wide.cm = 2;
        (void)warm.run_packet_full(wide, warm_rng);
        test_hooks::fill_gen1_thread_buffers(std::numeric_limits<float>::quiet_NaN());
      }
      Gen1Link link(config, 0x4EA1);
      TrialOptions options = default_options(Generation::kGen1);
      options.payload_bits = 24;
      options.ebn0_db = 3.0;
      options.cm = c.cm;
      options.start_delay_max_frames = c.delay_max_frames;
      TrialContext context;
      if (c.sampled) {
        options.sampling.mode = stats::SamplingMode::kNoiseScale;
        options.sampling.scale = 3.0;
        context.noise_scale = 3.0;
        context.sampling_resolved = true;
        context.sampling_trial = 5;
      }
      Rng rng(0x7E57);
      const Gen1Link::Capture cap = link.synthesize_capture(options, context, rng);
      ASSERT_FALSE(cap.converter.blocks.empty());
      for (const float v : cap.converter.values) {
        seen.converter_bits.push_back(std::bit_cast<uint32_t>(v));
      }
      const Gen1MfView mf =
          link.receiver().digitize_and_filter(cap.converter, link.transmitter(), cap.rx);
      for (const float v : mf.values) seen.mf_bits.push_back(std::bit_cast<uint32_t>(v));
      seen.trial = link.receive_capture(cap, options, rng);
    });
    worker.join();
    return seen;
  };
  for (const Case& c : cases) {
    const Observed fresh = observe(c, false);
    const Observed poisoned = observe(c, true);
    expect_same_outcome(poisoned.trial.outcome, fresh.trial.outcome, c.name);
    EXPECT_EQ(poisoned.trial.rx.data_bits, fresh.trial.rx.data_bits) << c.name;
    EXPECT_EQ(poisoned.converter_bits, fresh.converter_bits) << c.name;
    EXPECT_EQ(poisoned.mf_bits, fresh.mf_bits) << c.name;
    EXPECT_FALSE(fresh.mf_bits.empty()) << c.name;
  }
}

TEST(Gen1Receiver, ExpectedPowerGainMatchesTheMeasuredDensePower) {
  // The AGC sets its gain from the capture's expected filtered power
  // (Gen1AgcModel). On dense captures it must agree with the gain a
  // measurement of every filtered sample gives -- the model it replaced --
  // within 0.05 dB: AWGN and CM1, at 4 and 10 dB, over a few seeds.
  const Gen1Config config = sim::gen1_fast();
  const RealVec taps = dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
  const std::vector<float> taps_rev(taps.rbegin(), taps.rend());
  double worst_db = 0.0;
  for (const int cm : {0, 1}) {
    for (const double ebn0_db : {4.0, 10.0}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        Gen1Link link(config, seed);
        TrialOptions options = default_options(Generation::kGen1);
        options.genie_timing = false;  // a dense capture
        options.cm = cm;
        options.ebn0_db = ebn0_db;
        Rng rng(seed * 7919);
        const Gen1Link::Capture cap = link.synthesize_capture(options, TrialContext{}, rng);
        ASSERT_TRUE(cap.converter.blocks.empty());
        const std::size_t n = cap.samples.size();
        std::vector<float> y(n);
        dsp::convolve_same_range(cap.samples.data(), n, taps_rev.data(), taps_rev.size(), 0, n,
                                 y.data());
        double power = 0.0;
        for (const float v : y) power += static_cast<double>(v) * v;
        const double measured = std::sqrt(power / static_cast<double>(n));
        const double expected = link.receiver().expected_rms(cap.rx.agc, n);
        const double gap_db = 20.0 * std::log10(measured / expected);
        EXPECT_LT(std::abs(gap_db), 0.05)
            << "cm " << cm << ", " << ebn0_db << " dB, seed " << seed;
        worst_db = std::max(worst_db, std::abs(gap_db));
      }
    }
  }
  RecordProperty("worst_gain_gap_db", std::to_string(worst_db));
}

TEST(Gen1Receiver, AcquisitionFindsTiming) {
  const Gen1Config config = sim::gen1_nominal();
  Gen1Link link(config, 0xACE);
  txrx::TrialOptions options;
  options.kind = TrialKind::kAcquisition;
  options.ebn0_db = 18.0;  // gen-1's short-range link budget leaves ample margin
  options.payload_bits = 8;
  options.genie_timing = false;
  const auto trial = link.run_packet_full(options);
  EXPECT_TRUE(trial.rx.acq.acquired);
  EXPECT_EQ(trial.outcome.errors, 0u);  // timing within tolerance
  // Modeled sync time must satisfy the paper's < 70 us budget with the
  // default parallelism.
  EXPECT_LT(trial.rx.acq.sync_time_s, 70e-6);
}


// ------------------------------------------------------------ unified Link ----

TEST(UnifiedLink, MakeLinkDispatchesOnTheSpecGeneration) {
  const LinkSpec spec1{sim::gen1_fast(), default_options(Generation::kGen1)};
  const LinkSpec spec2{sim::gen2_fast(), default_options(Generation::kGen2)};
  const auto link1 = make_link(spec1, 1);
  const auto link2 = make_link(spec2, 1);
  EXPECT_NE(dynamic_cast<Gen1Link*>(link1.get()), nullptr);
  EXPECT_NE(dynamic_cast<Gen2Link*>(link2.get()), nullptr);
}

TEST(UnifiedLink, DefaultOptionsPerGeneration) {
  const TrialOptions gen1 = default_options(Generation::kGen1);
  EXPECT_TRUE(gen1.genie_timing);
  EXPECT_EQ(gen1.payload_bits, 32u);
  const TrialOptions gen2 = default_options(Generation::kGen2);
  EXPECT_FALSE(gen2.genie_timing);
  EXPECT_EQ(gen2.payload_bits, 200u);
}

TEST(UnifiedLink, SamePacketThroughBaseAndConcreteInterfaces) {
  // The virtual run_packet must report exactly what the detailed variant
  // reports, for the same per-trial Rng.
  const Gen2Config config = sim::gen2_fast();
  TrialOptions options;
  options.payload_bits = 64;
  options.ebn0_db = 14.0;
  options.cm = 1;

  Gen2Link detailed(config, 77);
  Rng rng_a(123);
  const Gen2TrialResult full = detailed.run_packet_full(options, rng_a);

  const auto link = make_link(LinkSpec{config, options}, 77);
  Rng rng_b(123);
  const sim::TrialOutcome slim = link->run_packet(options, rng_b);

  EXPECT_EQ(slim.bits, full.outcome.bits);
  EXPECT_EQ(slim.errors, full.outcome.errors);
  EXPECT_EQ(slim.metrics, full.outcome.metrics);
  ASSERT_TRUE(slim.metric(metric_names::kAcquired).has_value());
  EXPECT_EQ(*slim.metric(metric_names::kAcquired), full.rx.acquired ? 1.0 : 0.0);
  EXPECT_EQ(slim.metric(metric_names::kRakeEnergyCapture), full.rx.rake_energy_capture);
  EXPECT_EQ(slim.metric(metric_names::kSnrEstimate), full.rx.snr_estimate_db);
  EXPECT_FALSE(slim.metric("no_such_metric").has_value());
}

TEST(UnifiedLink, Gen1RejectsGen2OnlyOptionsLoudly) {
  TrialOptions interferer = default_options(Generation::kGen1);
  interferer.interferer = true;
  EXPECT_THROW((void)make_link(LinkSpec{sim::gen1_fast(), interferer}, 1),
               InvalidArgument);

  TrialOptions coded = default_options(Generation::kGen1);
  coded.fec = fec::ConvCode{};
  EXPECT_THROW((void)make_link(LinkSpec{sim::gen1_fast(), coded}, 1),
               InvalidArgument);

  // The run path is guarded too, not only the factory.
  Gen1Link link(sim::gen1_fast(), 1);
  Rng rng(5);
  EXPECT_THROW((void)link.run_packet(interferer, rng), InvalidArgument);
}

TEST(UnifiedLink, AcquisitionTrialsRunThroughRunPacket) {
  // Acquisition trials through the generic interface: run_packet(kind =
  // kAcquisition) must report exactly the outcome run_packet_full scores
  // from its acquisition result, as attempt/failure accounting plus
  // metrics.
  const Gen1Config config = sim::gen1_nominal();
  TrialOptions options = default_options(Generation::kGen1);
  options.kind = TrialKind::kAcquisition;
  options.genie_timing = false;
  options.payload_bits = 8;
  options.ebn0_db = 18.0;

  Gen1Link detailed(config, 0xACE);
  Rng rng_a(42);
  const Gen1TrialResult reference = detailed.run_packet_full(options, rng_a);
  const Gen1AcqResult& acq = reference.rx.acq;

  const auto link = make_link(LinkSpec{config, options}, 0xACE);
  Rng rng_b(42);
  const sim::TrialOutcome trial = link->run_packet(options, rng_b);

  EXPECT_EQ(trial.bits, 1u);  // one acquisition attempt
  EXPECT_EQ(reference.outcome.bits, 1u);
  EXPECT_EQ(trial.errors, reference.outcome.errors);
  EXPECT_EQ(trial.metrics, reference.outcome.metrics);
  // A trial's timing is correct when acquisition detected and the found
  // offset lies within acq_tol_samples of the true one, modulo one PN period.
  const bool timing_correct = reference.outcome.errors == 0;
  const std::size_t period =
      detailed.transmitter().preamble_chips().size() * config.frame_samples_adc;
  const std::size_t gap =
      (acq.timing_offset % period + period - reference.true_offset_adc % period) % period;
  EXPECT_EQ(timing_correct,
            acq.acquired && std::min(gap, period - gap) <= options.acq_tol_samples);
  EXPECT_EQ(trial.metric(metric_names::kAcquired), acq.acquired ? 1.0 : 0.0);
  EXPECT_EQ(trial.metric(metric_names::kTimingCorrect), timing_correct ? 1.0 : 0.0);
  if (acq.acquired) {
    EXPECT_EQ(trial.metric(metric_names::kSyncTime), acq.sync_time_s);
  } else {
    EXPECT_FALSE(trial.metric(metric_names::kSyncTime).has_value());
  }
}

TEST(UnifiedLink, Gen2RejectsAcquisitionTrialsLoudly) {
  TrialOptions options;  // gen-2 defaults
  options.kind = TrialKind::kAcquisition;
  EXPECT_THROW((void)make_link(LinkSpec{sim::gen2_fast(), options}, 1),
               InvalidArgument);
  Gen2Link link(sim::gen2_fast(), 1);
  Rng rng(5);
  EXPECT_THROW((void)link.run_packet(options, rng), InvalidArgument);
  EXPECT_THROW((void)trial_metric_names(Generation::kGen2, TrialKind::kAcquisition),
               InvalidArgument);
}

TEST(UnifiedLink, MetricVocabularyMatchesTrialKind) {
  // trial_metric_names lists what one (generation, kind) trial emits.
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kPacket),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kIsLlr}));
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kAcquisition),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kTimingCorrect,
                                      metric_names::kSyncTime}));
  EXPECT_EQ(trial_metric_names(Generation::kGen2, TrialKind::kPacket),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kRakeEnergyCapture,
                                      metric_names::kSnrEstimate,
                                      metric_names::kInterfererDetected,
                                      metric_names::kInterfererPom,
                                      metric_names::kInterfererFreqErr,
                                      metric_names::kIsLlr}));

  // validate_spec rejects names outside the kind's vocabulary.
  LinkSpec spec{sim::gen1_fast(), default_options(Generation::kGen1)};
  spec.options.record_metrics = {metric_names::kSyncTime};  // packet kind: not emitted
  EXPECT_THROW(validate_spec(spec), InvalidArgument);
  spec.options.record_metrics = {metric_names::kAcquired};
  EXPECT_NO_THROW(validate_spec(spec));
}

}  // namespace
}  // namespace uwb::txrx
