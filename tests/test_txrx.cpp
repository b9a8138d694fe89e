// Tests for the transceiver layer: configurations, transmitters, power
// model, and single-packet receiver happy paths.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "channel/awgn.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "channel/saleh_valenzuela.h"
#include "dsp/fast_convolve.h"
#include "dsp/fir_filter.h"
#include "dsp/power_spectrum.h"
#include "sim/scenario.h"
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

  const dsp::FastConvolveGuard guard(false);  // exact direct reference
  const RealWaveform dense = cir.apply_real(wave);

  const CplxVec hc = cir.sampled(config.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  const RealVec g = dsp::convolve(tx.prototype().samples(), hr);

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

TEST(Gen1Link, PacketOutcomeAgreesAcrossChannelPolicy) {
  // End to end across the channel policy: the fast path runs the sparse
  // scatter + single-precision arena, the direct path the dense double
  // waveform. Their noise realizations differ by design (the float arena
  // runs a dedicated single-precision sampler), so per-trial agreement at
  // operating Eb/N0 is no longer defined. At 40 dB the noise is decades
  // below every decision margin on both paths, so the bit decisions are a
  // function of the pre-noise waveform alone -- which the two paths build
  // equivalently (same trial Rng, same channel realization, float vs
  // double rounding) -- and the error counts, channel-induced errors
  // included, must match exactly. The waveform-level equivalence of the
  // sparse channel math is pinned by SparseChannelPathMatchesDenseConvolution.
  const Gen1Config config = sim::gen1_fast();
  TrialOptions options = default_options(Generation::kGen1);
  options.cm = 3;
  options.ebn0_db = 40.0;
  for (uint64_t trial = 0; trial < 3; ++trial) {
    Gen1Link fast_link(config, 99);
    Gen1Link slow_link(config, 99);
    Rng root(1234);
    Rng rng_fast = root.fork(trial);
    Rng rng_slow = root.fork(trial);
    TrialResult fast, slow;
    {
      const dsp::FastConvolveGuard guard(true);
      fast = fast_link.run_packet(options, rng_fast);
    }
    {
      const dsp::FastConvolveGuard guard(false);
      slow = slow_link.run_packet(options, rng_slow);
    }
    EXPECT_EQ(fast.bits, slow.bits) << "trial " << trial;
    EXPECT_EQ(fast.errors, slow.errors) << "trial " << trial;
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
  EXPECT_EQ(trial.errors, 0u) << "ber=" << static_cast<double>(trial.errors) / trial.bits;
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
    total_bits += trial.bits;
    total_errors += trial.errors;
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
  EXPECT_EQ(after.bits, clean.bits);
  EXPECT_EQ(after.errors, clean.errors);
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
  EXPECT_EQ(trial.errors, 0u);
  EXPECT_GT(trial.bits, 0u);
}

TEST(Gen1Receiver, AcquisitionFindsTiming) {
  const Gen1Config config = sim::gen1_nominal();
  Gen1Link link(config, 0xACE);
  txrx::TrialOptions options;
  options.ebn0_db = 18.0;  // gen-1's short-range link budget leaves ample margin
  options.payload_bits = 8;
  options.genie_timing = false;
  const auto trial = link.run_acquisition(options);
  EXPECT_TRUE(trial.acq.acquired);
  EXPECT_TRUE(trial.timing_correct);
  // Modeled sync time must satisfy the paper's < 70 us budget with the
  // default parallelism.
  EXPECT_LT(trial.acq.sync_time_s, 70e-6);
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
  const TrialResult slim = link->run_packet(options, rng_b);

  EXPECT_EQ(slim.bits, full.bits);
  EXPECT_EQ(slim.errors, full.errors);
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
  // The gen-1 acquisition side door folded into the generic interface:
  // run_packet(kind = kAcquisition) must report exactly what
  // run_acquisition reports, as attempt/failure accounting plus metrics.
  const Gen1Config config = sim::gen1_nominal();
  TrialOptions options = default_options(Generation::kGen1);
  options.kind = TrialKind::kAcquisition;
  options.genie_timing = false;
  options.payload_bits = 8;
  options.ebn0_db = 18.0;

  Gen1Link detailed(config, 0xACE);
  Rng rng_a(42);
  const Gen1Link::AcqTrial reference =
      detailed.run_acquisition(options, rng_a, options.acq_tol_samples);

  const auto link = make_link(LinkSpec::for_gen1(config, options), 0xACE);
  Rng rng_b(42);
  const TrialResult trial = link->run_packet(options, rng_b);

  EXPECT_EQ(trial.bits, 1u);  // one acquisition attempt
  EXPECT_EQ(trial.errors, reference.timing_correct ? 0u : 1u);
  EXPECT_EQ(trial.metric(metric_names::kAcquired), reference.acq.acquired ? 1.0 : 0.0);
  EXPECT_EQ(trial.metric(metric_names::kTimingCorrect),
            reference.timing_correct ? 1.0 : 0.0);
  if (reference.acq.acquired) {
    EXPECT_EQ(trial.metric(metric_names::kSyncTime), reference.acq.sync_time_s);
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
