// Tests for the transceiver layer: configurations, transmitters, power
// model, and single-packet receiver happy paths.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
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
  auto [wave, frame] = tx.transmit(rng.bits(32));
  EXPECT_EQ(frame.preamble_bits, 127u);  // 1 repetition in the fast config
  EXPECT_GT(wave.size(), 127u * config.frame_samples_analog());
  EXPECT_GT(frame.energy_per_bit, 0.0);
  // Data bits: SFD(16) + header(32) + payload+CRC(64).
  EXPECT_EQ(frame.frame_bits.size(), 16u + 32u + 64u);
}

TEST(Gen1Transmitter, PreambleChipsAreAntipodal) {
  const Gen1Transmitter tx(sim::gen1_nominal());
  EXPECT_EQ(tx.preamble_chips().size(), 127u);
  for (double c : tx.preamble_chips()) {
    EXPECT_TRUE(c == 1.0 || c == -1.0);
  }
  EXPECT_EQ(tx.preamble_frames(), 254u);  // 2 repetitions
}

TEST(Gen1Transmitter, SparseTrainDescribesTheDenseWaveform) {
  // transmit_train and transmit must be two views of the same signal:
  // summing shifted prototype copies over the slot amplitudes rebuilds the
  // dense waveform exactly.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(7);
  const BitVec payload = rng.bits(32);
  auto [wave, frame] = tx.transmit(payload);
  const Gen1Train train = tx.transmit_train(payload);

  ASSERT_EQ(train.frame.frame_bits, frame.frame_bits);
  EXPECT_EQ(train.frame.energy_per_bit, frame.energy_per_bit);
  ASSERT_EQ(train.amplitudes.size(),
            frame.preamble_bits + frame.frame_bits.size() *
                                      static_cast<std::size_t>(config.pulses_per_bit));

  const RealVec& proto = tx.prototype().samples();
  const std::size_t frame_samples = config.frame_samples_analog();
  RealVec dense(frame_samples * train.amplitudes.size() + proto.size(), 0.0);
  for (std::size_t s = 0; s < train.amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      dense[s * frame_samples + i] += train.amplitudes[s] * proto[i];
    }
  }
  ASSERT_EQ(dense.size(), wave.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i], wave[i]) << "sample " << i;
  }
}

TEST(Gen1Link, SparseChannelPathMatchesDenseConvolution) {
  // The fast multipath path applies the channel as shift-adds of the
  // composite kernel g = prototype (x) CIR; convolution distributes over
  // the slot sum, so it must equal the dense cir.apply_real to rounding.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(11);
  const BitVec payload = rng.bits(32);
  auto [wave, frame] = tx.transmit(payload);
  const Gen1Train train = tx.transmit_train(payload);

  channel::SvParams params = channel::cm_by_index(3);
  params.complex_phases = false;
  const channel::Cir cir = channel::SalehValenzuela(params).realize(rng);

  // The direct kernels are the exact reference.
  const CplxVec hc = cir.sampled(config.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  const RealVec dense = dsp::convolve_direct(wave.samples(), hr);
  const RealVec g = dsp::convolve_direct(tx.prototype().samples(), hr);

  const std::size_t frame_samples = config.frame_samples_analog();
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
  auto [wave, frame] = tx.transmit(rng.bits(100));
  // Overhead: preamble (63*2) + SFD 16 + header 32.
  EXPECT_EQ(frame.overhead_symbols, 126u + 16u + 32u);
  EXPECT_EQ(frame.payload_symbols, 132u);  // payload + CRC-32, BPSK
  EXPECT_EQ(frame.body_bits, 132u);
  EXPECT_EQ(wave.sample_rate(), config.analog_fs);
  EXPECT_GT(frame.energy_per_bit, 0.0);
}

TEST(Gen2Transmitter, OccupiedBandwidthIs500MHz) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  Rng rng(3);
  auto [wave, frame] = tx.transmit(rng.bits(400));
  const dsp::Psd psd = dsp::welch_psd(wave, 1024);
  const double bw = dsp::bandwidth_at_level(psd, -10.0);
  EXPECT_NEAR(bw, 500e6, 150e6);
}

TEST(Gen2Transmitter, PassbandSynthesisAtChannel) {
  Gen2Config config = sim::gen2_fast();
  config.channel_index = 4;  // ~5 GHz (Fig. 4)
  const Gen2Transmitter tx(config);
  Rng rng(4);
  auto [bb, frame] = tx.transmit(rng.bits(16));
  // Truncate for speed.
  const CplxWaveform head = bb.slice(0, std::min<std::size_t>(bb.size(), 16384));
  const RealWaveform rf = tx.transmit_passband(head, 20e9);
  EXPECT_DOUBLE_EQ(rf.sample_rate(), 20e9);
  const dsp::Psd psd = dsp::welch_psd(rf, 4096);
  const pulse::BandPlan plan;
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
  // and CM profile it must equal the delayed dense train through
  // Cir::apply to 1e-12 of the peak -- bit for bit through the identity
  // (AWGN) channel -- followed by the zero tail pad.
  const std::size_t delay = 17;
  const std::size_t pad = 256;
  for (const phy::Modulation mod : {phy::Modulation::kBpsk, phy::Modulation::kOok,
                                    phy::Modulation::kPpm, phy::Modulation::kPam4}) {
    Gen2Config config = sim::gen2_fast();
    config.modulation = mod;
    const Gen2Transmitter tx(config);
    Rng rng(0xC0DE + static_cast<uint64_t>(mod));
    const BitVec payload = rng.bits(120);
    auto [wave, frame] = tx.transmit(payload);
    wave.delay_samples(delay);
    const Gen2Train train = tx.transmit_train(payload);
    EXPECT_EQ(train.frame.energy_per_bit, frame.energy_per_bit);
    for (int cm = 0; cm <= 4; ++cm) {
      const channel::Cir cir =
          cm == 0 ? channel::identity_cir()
                  : channel::SalehValenzuela(channel::cm_by_index(cm)).realize(rng);
      const CplxWaveform want = cir.apply(wave);
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

TEST(Gen1Receiver, DecisionWindowsReceiveLikeTheWholeCapture) {
  // A genie-timed receive digitizes only the ADC windows its despreader
  // reads. Through the same entry point, those windows, the same windows
  // widened to start off the 4-lane converter pattern, and the single
  // window [0, n) must give the same trial record and the same matched-
  // filter value at every read index: AWGN, CM1 through the composite
  // kernel, an importance-sampled trial, and several start delays. Low
  // Eb/N0, so bit errors (and their exact positions) are in play.
  const Gen1Config config = sim::gen1_fast();
  struct Case {
    const char* name;
    int cm;
    bool sampled;
    std::size_t delay_max_frames;
  };
  const Case cases[] = {{"awgn", 0, false, 0},
                        {"awgn-delayed", 0, false, 40},
                        {"cm1", 1, false, 12},
                        {"awgn-is", 0, true, 25}};
  const AdcWindow whole{0, std::numeric_limits<std::size_t>::max()};
  for (const Case& c : cases) {
    Gen1Link link(config, 0x51DE);
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
    }
    const Rng root(0xD1CE);
    for (uint64_t trial = 0; trial < 3; ++trial) {
      const std::string where = std::string(c.name) + " trial " + std::to_string(trial);
      context.sampling_trial = trial;
      Rng rng = root.fork(trial);
      const Gen1Link::Capture cap = link.synthesize_capture(options, context, rng);
      const std::vector<AdcWindow> windows(cap.windows.begin(), cap.windows.end());
      ASSERT_GT(windows.size(), 1u) << where;  // genie timing: per-pulse windows
      std::vector<AdcWindow> shifted = windows;
      for (std::size_t i = 0; i < shifted.size(); ++i) shifted[i].begin -= 1 + i % 3;

      Rng rng_windowed = rng;
      Rng rng_shifted = rng;
      Rng rng_whole = rng;
      const Gen1TrialResult windowed = link.receive_capture(cap, options, windows, rng_windowed);
      const Gen1TrialResult off_lane = link.receive_capture(cap, options, shifted, rng_shifted);
      const Gen1TrialResult dense = link.receive_capture(cap, options, {&whole, 1}, rng_whole);
      expect_same_outcome(windowed.outcome, dense.outcome, where);
      expect_same_outcome(off_lane.outcome, dense.outcome, where + " shifted");
      EXPECT_EQ(windowed.rx.data_bits, dense.rx.data_bits) << where;

      // Each decision window begins at the matched-filter index it serves.
      Gen1Receiver& rx = link.receiver();
      const auto read_values = [&](std::span<const AdcWindow> digitized) {
        Rng rng_mf = rng;
        const Gen1MfView mf = rx.digitize_and_filter(cap.samples, config.analog_fs,
                                                     link.transmitter(), digitized, cap.rx,
                                                     rng_mf);
        std::vector<uint32_t> bits;
        for (const AdcWindow& w : windows) {
          const float* v = mf.find(w.begin);
          EXPECT_NE(v, nullptr) << where << " index " << w.begin;
          bits.push_back(v != nullptr ? std::bit_cast<uint32_t>(*v) : 0u);
        }
        return bits;
      };
      const std::vector<uint32_t> dense_mf = read_values({&whole, 1});
      EXPECT_EQ(read_values(windows), dense_mf) << where;
      EXPECT_EQ(read_values(shifted), dense_mf) << where << " shifted";
    }
  }
}

TEST(Gen1Receiver, JitteredSamplerDigitizesTheWholeCapture) {
  // Aperture jitter draws the Rng once per ADC sample in stream order, so
  // even a genie-timed receive must digitize the single window [0, n).
  Gen1Config config = sim::gen1_fast();
  config.aperture_jitter_rms_s = 2e-12;
  Gen1Link link(config, 0x717);
  TrialOptions options = default_options(Generation::kGen1);
  options.payload_bits = 8;
  Rng rng(3);
  const Gen1Link::Capture cap = link.synthesize_capture(options, TrialContext{}, rng);
  const std::span<const AdcWindow> windows = cap.windows;
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows.front().begin, 0u);
  EXPECT_EQ(windows.front().end, cap.samples.size() / 2);  // 4 GS/s analog, 2 GS/s ADC
  const AdcWindow part{windows.front().end / 2, windows.front().end};
  EXPECT_THROW((void)link.receive_capture(cap, options, {&part, 1}, rng), InvalidArgument);
}

TEST(Gen1Link, LinksSharingAThreadsArenasRunAsIfAlone) {
  // The gen-1 capture arena and the receiver's sample buffers belong to
  // the thread, shared by every gen-1 link it runs. Two links with
  // different options -- AWGN genie-timed windows, and CM1 with a start
  // delay and a dense acquisition pass over a longer capture -- run
  // interleaved on one thread must give each trial the outcome it has when
  // its link runs alone.
  const Gen1Config config = sim::gen1_fast();
  TrialOptions awgn = default_options(Generation::kGen1);
  awgn.ebn0_db = 4.0;
  TrialOptions cm1 = default_options(Generation::kGen1);
  cm1.cm = 1;
  cm1.ebn0_db = 8.0;
  cm1.payload_bits = 48;
  cm1.start_delay_max_frames = 40;
  cm1.genie_timing = false;
  constexpr std::size_t kTrials = 4;
  const auto trial_rng = [](uint64_t link_seed, std::size_t t) { return Rng(link_seed).fork(t); };
  const auto run_alone = [&](const TrialOptions& options, uint64_t link_seed) {
    Gen1Link link(config, link_seed);
    std::vector<Gen1TrialResult> trials;
    for (std::size_t t = 0; t < kTrials; ++t) {
      Rng rng = trial_rng(link_seed, t);
      trials.push_back(link.run_packet_full(options, rng));
    }
    return trials;
  };
  const std::vector<Gen1TrialResult> alone_awgn = run_alone(awgn, 0xA1);
  const std::vector<Gen1TrialResult> alone_cm1 = run_alone(cm1, 0xC1);

  Gen1Link link_awgn(config, 0xA1);
  Gen1Link link_cm1(config, 0xC1);
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
    Rng rng_awgn = trial_rng(0xA1, t);
    expect_as_alone(link_awgn.run_packet_full(awgn, rng_awgn), alone_awgn[t], "awgn " + where);
  }
}

TEST(Gen1Link, LandedTrainOverSpansMatchesTheDenseScatter) {
  // gen1_land_train over spans that split [0, n) -- or over sparse spans,
  // NaN elsewhere -- must give each span sample the float a scatter of
  // every pulse into a zeroed [0, n) gives it, and touch nothing else.
  Rng rng(0x1A7D);
  std::vector<double> amplitudes(40);
  for (double& a : amplitudes) a = rng.uniform(-1.0, 1.0);
  amplitudes[7] = 0.0;
  std::vector<float> g(300);  // longer than a frame: pulses overlap
  for (float& v : g) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  constexpr std::size_t kDelay = 517;
  constexpr std::size_t kFrame = 211;
  const std::size_t n = kDelay + kFrame * amplitudes.size() + g.size() + 64;
  std::vector<float> dense(n, 0.0f);
  for (std::size_t s = 0; s < amplitudes.size(); ++s) {
    const auto a = static_cast<float>(amplitudes[s]);
    for (std::size_t i = 0; i < g.size(); ++i) dense[kDelay + s * kFrame + i] += a * g[i];
  }
  const std::vector<std::vector<IndexRange>> span_sets = {
      {{0, n}},
      {{0, 600}, {600, 601}, {601, 4000}, {4000, n}},
      {{10, 500}, {517, 530}, {1000, 1400}, {5000, 5003}, {n - 10, n}}};
  for (const std::vector<IndexRange>& spans : span_sets) {
    std::vector<float> rx(n, std::numeric_limits<float>::quiet_NaN());
    gen1_land_train(amplitudes, kDelay, kFrame, g, spans, rx.data());
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (k < spans.size() && spans[k].end <= i) ++k;
      if (k < spans.size() && i >= spans[k].begin) {
        ASSERT_EQ(std::bit_cast<uint32_t>(rx[i]), std::bit_cast<uint32_t>(dense[i]))
            << spans.size() << " spans, sample " << i;
      } else {
        ASSERT_TRUE(std::isnan(rx[i])) << "sample " << i << " outside the spans was written";
      }
    }
  }
}

TEST(Gen1Link, PoisonedThreadBuffersChangeNoGenieTrial) {
  // A genie-timed trial synthesizes, filters and digitizes only the spans
  // its decision reads. Run on a thread whose capture arena and receive
  // buffers were first grown by a dense trial and then filled with NaN, it
  // must give the trial record, the decoded bits and the matched-filter
  // value at every read index it gives on a fresh thread: AWGN, CM1, an
  // importance-sampled trial, and a start-delayed one.
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
      const std::vector<AdcWindow> windows(cap.windows.begin(), cap.windows.end());
      Rng rng_mf = rng;
      const Gen1MfView mf = link.receiver().digitize_and_filter(
          cap.samples, config.analog_fs, link.transmitter(), windows, cap.rx, rng_mf);
      for (const AdcWindow& w : windows) {
        const float* v = mf.find(w.begin);
        seen.mf_bits.push_back(v != nullptr ? std::bit_cast<uint32_t>(*v) : 0u);
      }
      seen.trial = link.receive_capture(cap, options, windows, rng);
    });
    worker.join();
    return seen;
  };
  for (const Case& c : cases) {
    const Observed fresh = observe(c, false);
    const Observed poisoned = observe(c, true);
    expect_same_outcome(poisoned.trial.outcome, fresh.trial.outcome, c.name);
    EXPECT_EQ(poisoned.trial.rx.data_bits, fresh.trial.rx.data_bits) << c.name;
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
        options.genie_timing = false;  // a dense capture: spans [0, n)
        options.cm = cm;
        options.ebn0_db = ebn0_db;
        Rng rng(seed * 7919);
        const Gen1Link::Capture cap = link.synthesize_capture(options, TrialContext{}, rng);
        ASSERT_EQ(cap.spans.size(), 1u);
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
  const LinkSpec spec1 = LinkSpec::for_gen1(sim::gen1_fast());
  const LinkSpec spec2 = LinkSpec::for_gen2(sim::gen2_fast());
  const auto link1 = make_link(spec1, 1);
  const auto link2 = make_link(spec2, 1);
  EXPECT_EQ(link1->generation(), Generation::kGen1);
  EXPECT_EQ(link2->generation(), Generation::kGen2);
  EXPECT_NE(dynamic_cast<Gen1Link*>(link1.get()), nullptr);
  EXPECT_NE(dynamic_cast<Gen2Link*>(link2.get()), nullptr);
}

TEST(UnifiedLink, CapsReflectTheHardware) {
  const auto gen1 = make_link(LinkSpec::for_gen1(sim::gen1_fast()), 2);
  const auto gen2 = make_link(LinkSpec::for_gen2(sim::gen2_fast()), 2);
  EXPECT_FALSE(gen1->caps().complex_baseband);
  EXPECT_TRUE(gen1->caps().supports_acquisition_trials);
  EXPECT_FALSE(gen1->caps().supports_fec);
  EXPECT_NEAR(gen1->caps().bit_rate_hz, 193e3, 1e3);
  EXPECT_TRUE(gen2->caps().complex_baseband);
  EXPECT_TRUE(gen2->caps().supports_interferer);
  EXPECT_TRUE(gen2->caps().supports_fec);
  EXPECT_DOUBLE_EQ(gen2->caps().bit_rate_hz, 100e6);
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

  const auto link = make_link(LinkSpec::for_gen2(config, options), 77);
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
  EXPECT_THROW((void)make_link(LinkSpec::for_gen1(sim::gen1_fast(), interferer), 1),
               InvalidArgument);

  TrialOptions coded = default_options(Generation::kGen1);
  coded.fec = fec::k3_rate_half();
  EXPECT_THROW((void)make_link(LinkSpec::for_gen1(sim::gen1_fast(), coded), 1),
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

  const auto link = make_link(LinkSpec::for_gen1(config, options), 0xACE);
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
  EXPECT_THROW((void)make_link(LinkSpec::for_gen2(sim::gen2_fast(), options), 1),
               InvalidArgument);
  Gen2Link link(sim::gen2_fast(), 1);
  Rng rng(5);
  EXPECT_THROW((void)link.run_packet(options, rng), InvalidArgument);
  EXPECT_THROW((void)trial_metric_names(Generation::kGen2, TrialKind::kAcquisition),
               InvalidArgument);
}

TEST(UnifiedLink, MetricVocabularyMatchesCapsAndKind) {
  // Caps advertise the full vocabulary; trial_metric_names narrows it to
  // what one trial kind actually emits, and the emitted sets match what
  // run_packet produces (the acquired flag at minimum).
  const auto gen1 = make_link(LinkSpec::for_gen1(sim::gen1_fast()), 3);
  const auto gen2 = make_link(LinkSpec::for_gen2(sim::gen2_fast()), 3);
  EXPECT_EQ(gen1->caps().metric_names,
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kIsLlr,
                                      metric_names::kTimingCorrect,
                                      metric_names::kSyncTime}));
  EXPECT_EQ(gen2->caps().metric_names,
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kRakeEnergyCapture,
                                      metric_names::kSnrEstimate,
                                      metric_names::kInterfererDetected,
                                      metric_names::kInterfererPom,
                                      metric_names::kInterfererFreqErr,
                                      metric_names::kIsLlr}));
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kPacket),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kIsLlr}));
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kAcquisition),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kTimingCorrect,
                                      metric_names::kSyncTime}));
  EXPECT_EQ(trial_metric_names(Generation::kGen2, TrialKind::kPacket),
            gen2->caps().metric_names);

  // validate_spec rejects names outside the kind's vocabulary.
  LinkSpec spec = LinkSpec::for_gen1(sim::gen1_fast());
  spec.options.record_metrics = {metric_names::kSyncTime};  // packet kind: not emitted
  EXPECT_THROW(validate_spec(spec), InvalidArgument);
  spec.options.record_metrics = {metric_names::kAcquired};
  EXPECT_NO_THROW(validate_spec(spec));
}

}  // namespace
}  // namespace uwb::txrx
