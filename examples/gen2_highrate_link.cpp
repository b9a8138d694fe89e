// Generation-2 demo (paper Section 3, Fig. 3): the 3.1-10.6 GHz direct
// conversion transceiver at 100 Mbps. Exercises channel hopping across the
// 14-channel band plan and shows how the programmable back end (RAKE
// fingers, MLSE states) trades BER against multipath severity.

#include <cstdio>

#include "pulse/band_plan.h"
#include "sim/ber_simulator.h"
#include "sim/scenario.h"
#include "txrx/link.h"

namespace {

uwb::sim::BerPoint measure(uwb::txrx::Gen2Link& link, const uwb::txrx::TrialOptions& options) {
  uwb::sim::BerStop stop;
  stop.min_errors = 20;
  stop.max_bits = 40000;
  return uwb::sim::measure_ber([&] { return link.run_packet(options); }, stop);
}

}  // namespace

int main() {
  using namespace uwb;

  // --- Band plan: 14 channels of 500 MHz across 3.1-10.6 GHz ---------------
  const pulse::BandPlan plan;
  std::printf("Gen-2 band plan (%zu channels):\n", plan.num_channels());
  for (const auto& ch : plan.channels()) {
    std::printf("  ch %2d: %5.3f - %6.3f GHz (center %5.3f GHz)\n", ch.index, ch.low_hz / 1e9,
                ch.high_hz / 1e9, ch.center_hz / 1e9);
  }

  // --- Channel hopping: the synthesizer pays a settle time per hop ---------
  txrx::Gen2Config config = sim::gen2_fast();
  Rng rng(3);
  txrx::Gen2Receiver receiver(config, rng);
  // (hopping is controlled through the front end inside the receiver; the
  // synthesizer cost is modeled by rf::Synthesizer::tune)
  rf::FrontEnd fe(config.front_end, plan);
  double hop_cost = 0.0;
  for (int ch : {0, 7, 13, 4}) {
    hop_cost += fe.tune(ch);
  }
  std::printf("\n4 hops cost %.1f us of synthesizer settling\n", hop_cost * 1e6);

  // --- 100 Mbps under increasing multipath severity ------------------------
  std::printf("\nBER at 100 Mbps, Eb/N0 = 14 dB, RAKE(8) + MLSE(8 states):\n");
  for (int cm = 0; cm <= 4; ++cm) {
    txrx::Gen2Link link(config, 0x51000 + static_cast<uint64_t>(cm));
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = cm;
    options.ebn0_db = 14.0;
    const auto point = measure(link, options);
    std::printf("  %s : BER %.2e  (%zu bits)\n",
                cm == 0 ? "AWGN" : ("CM" + std::to_string(cm)).c_str(), point.ber, point.bits);
  }

  std::printf("\nReconfiguring the back end (paper: power/QoS/data-rate trade-off):\n");
  for (std::size_t fingers : {2u, 8u, 16u}) {
    txrx::Gen2Config cfg = config;
    cfg.rake.num_fingers = fingers;
    txrx::Gen2Link link(cfg, 0x52000);
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 3;
    options.ebn0_db = 14.0;
    const auto point = measure(link, options);
    std::printf("  %2zu RAKE fingers: BER %.2e\n", fingers, point.ber);
  }
  return 0;
}
