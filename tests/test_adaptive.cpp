// Tests for the reconfiguration controller (paper Section 3: "adapting to
// channel conditions") and the coded-link mode.

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/adaptive.h"
#include "sim/ber_simulator.h"
#include "sim/scenario.h"
#include "txrx/link.h"
#include "txrx/power_model.h"

namespace uwb {
namespace {

using sim::AdaptationObservation;
using sim::LinkAdapter;

// ------------------------------------------------------------- controller ----

TEST(LinkAdapter, SevereMultipathEscalates) {
  const LinkAdapter adapter(10e-9);
  AdaptationObservation mild;
  mild.delay_spread_s = 1e-9;
  mild.snr_db = 15.0;
  AdaptationObservation severe = mild;
  severe.delay_spread_s = 25e-9;
  EXPECT_EQ(adapter.decide(mild).rung, "minimal");
  EXPECT_EQ(adapter.decide(severe).rung, "maximal");
}

TEST(LinkAdapter, EffortMonotoneInDelaySpread) {
  const LinkAdapter adapter(10e-9);
  std::size_t prev_fingers = 0;
  for (double spread_ns : {1.0, 3.0, 8.0, 15.0, 30.0}) {
    AdaptationObservation obs;
    obs.delay_spread_s = spread_ns * 1e-9;
    obs.snr_db = 14.0;
    const auto decision = adapter.decide(obs);
    EXPECT_GE(decision.rake_fingers, prev_fingers) << "spread " << spread_ns;
    prev_fingers = decision.rake_fingers;
  }
}

TEST(LinkAdapter, InterfererForcesAtLeastNominal) {
  const LinkAdapter adapter(10e-9);
  AdaptationObservation obs;
  obs.delay_spread_s = 1e-9;  // would be "minimal"
  obs.snr_db = 20.0;
  obs.interferer = true;
  const auto decision = adapter.decide(obs);
  EXPECT_EQ(decision.rung, "nominal");
  EXPECT_TRUE(decision.use_mlse);
}

TEST(LinkAdapter, HighSnrShedsEffort) {
  const LinkAdapter adapter(10e-9, 8.0);
  AdaptationObservation obs;
  obs.delay_spread_s = 8e-9;  // "nominal" territory
  obs.snr_db = 30.0;          // huge headroom
  EXPECT_EQ(adapter.decide(obs).rung, "low");
}

TEST(LinkAdapter, HysteresisNeedsPersistence) {
  LinkAdapter adapter(10e-9);
  AdaptationObservation severe;
  severe.delay_spread_s = 30e-9;
  severe.snr_db = 12.0;
  // Starts at nominal; a single severe observation must not flip it.
  EXPECT_EQ(adapter.update(severe).rung, "nominal");
  EXPECT_EQ(adapter.update(severe).rung, "maximal");  // second one commits
}

TEST(LinkAdapter, ApplyWritesProgrammableFields) {
  txrx::Gen2Config config = sim::gen2_nominal();
  sim::AdaptationDecision decision{"maximal", 16, true, 5, 4};
  LinkAdapter::apply(decision, config);
  EXPECT_EQ(config.rake.num_fingers, 16u);
  EXPECT_EQ(config.mlse.memory, 5);
  // Converter hardware untouched.
  EXPECT_EQ(config.sar.bits, 5);
}

TEST(LinkAdapter, PowerOrderingAcrossRungs) {
  // The ladder must actually be a power ladder.
  const LinkAdapter adapter(10e-9);
  double prev = 0.0;
  for (double spread_ns : {1.0, 3.0, 8.0, 30.0}) {
    AdaptationObservation obs;
    obs.delay_spread_s = spread_ns * 1e-9;
    obs.snr_db = 14.0;
    txrx::Gen2Config config = sim::gen2_nominal();
    LinkAdapter::apply(adapter.decide(obs), config);
    const double p = txrx::gen2_power(config).total_w();
    EXPECT_GE(p, prev);
    prev = p;
  }
}

// ------------------------------------------------------------- coded link ----

TEST(CodedLink, SoftViterbiBeatsUncodedAtEqualInfoEnergy) {
  // Rate-1/2 K=7 halves the rate; at equal energy per information bit the
  // coded link runs at options.ebn0_db 3 dB lower. The coding gain must
  // exceed that rate loss at moderate SNR.
  txrx::Gen2Config config = sim::gen2_fast();

  sim::BerStop stop;
  stop.min_errors = 25;
  stop.max_bits = 60000;

  txrx::Gen2Link coded_link(config, 0xC0DE);
  txrx::TrialOptions coded;
  coded.payload_bits = 200;
  coded.ebn0_db = 4.0;  // info-bit Eb/N0 = 7 dB
  coded.fec = fec::k7_rate_half();
  const auto p_coded = sim::measure_ber([&] { return coded_link.run_packet(coded); }, stop);

  txrx::Gen2Link plain_link(config, 0xC0DE);
  txrx::TrialOptions plain;
  plain.payload_bits = 200;
  plain.ebn0_db = 7.0;  // same info-bit energy
  const auto p_plain = sim::measure_ber([&] { return plain_link.run_packet(plain); }, stop);

  EXPECT_LT(p_coded.ber, p_plain.ber)
      << "coded=" << p_coded.ber << " uncoded=" << p_plain.ber;
}

TEST(CodedLink, DecodesCleanlyAtModerateSnr) {
  txrx::Gen2Config config = sim::gen2_fast();
  txrx::Gen2Link link(config, 0xC1DE);
  txrx::TrialOptions options;
  options.payload_bits = 200;
  options.ebn0_db = 6.0;
  options.fec = fec::ConvCode{};
  std::size_t bits = 0, errors = 0;
  for (int p = 0; p < 5; ++p) {
    const auto trial = link.run_packet(options);
    bits += trial.bits;
    errors += trial.errors;
  }
  EXPECT_EQ(bits, 1000u);  // info bits, not coded bits
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(bits), 0.01);
}

TEST(CodedLink, RequiresBpsk) {
  txrx::Gen2Config config = sim::gen2_fast();
  config.modulation = phy::Modulation::kPpm;
  txrx::Gen2Link link(config, 0xC2DE);
  txrx::TrialOptions options;
  options.fec = fec::ConvCode{};
  EXPECT_THROW((void)link.run_packet(options), InvalidArgument);
}

}  // namespace
}  // namespace uwb
