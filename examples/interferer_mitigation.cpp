// Spectral monitoring + notch demo (paper Section 3): "The digital back end
// detects the presence of an interferer and estimates its frequency that
// may be used in the front end notch filter."
//
// A CW jammer 15 dB above the UWB signal lands in-band; the monitor finds
// it, the receiver re-tunes its RF notch, and the link recovers.

#include <cstdio>

#include "sim/ber_simulator.h"
#include "sim/scenario.h"
#include "txrx/link.h"

namespace {

uwb::sim::BerPoint measure(uwb::txrx::Gen2Link& link, const uwb::txrx::TrialOptions& options) {
  uwb::sim::BerStop stop;
  stop.min_errors = 25;
  stop.max_bits = 50000;
  return uwb::sim::measure_ber([&] { return link.run_packet(options); }, stop);
}

}  // namespace

int main() {
  using namespace uwb;

  txrx::Gen2Config config = sim::gen2_fast();

  txrx::TrialOptions clean;
  clean.payload_bits = 300;
  clean.ebn0_db = 10.0;

  txrx::TrialOptions jammed = clean;
  jammed.interferer = true;
  jammed.interferer_sir_db = -15.0;   // jammer 15 dB ABOVE the signal
  jammed.interferer_freq_hz = 130e6;  // offset from the channel center

  txrx::TrialOptions defended = jammed;
  defended.auto_notch = true;         // monitor drives the RF notch

  std::printf("Narrowband interferer mitigation (SIR = %.0f dB, offset %.0f MHz)\n",
              jammed.interferer_sir_db, jammed.interferer_freq_hz / 1e6);
  std::printf("----------------------------------------------------------------\n");

  txrx::Gen2Link link_a(config, 0xA0);
  const auto p_clean = measure(link_a, clean);
  std::printf("no interferer          : BER %.2e\n", p_clean.ber);

  txrx::Gen2Link link_b(config, 0xA0);
  const auto p_jam = measure(link_b, jammed);
  std::printf("interferer, no defense : BER %.2e\n", p_jam.ber);

  txrx::Gen2Link link_c(config, 0xA0);
  const auto p_def = measure(link_c, defended);
  std::printf("interferer + notch     : BER %.2e\n", p_def.ber);

  // Show one packet's monitor report.
  txrx::Gen2Link probe(config, 0xA1);
  const auto trial = probe.run_packet_full(defended);
  std::printf("\nmonitor report: detected=%s, f = %.1f MHz (true 130.0), peak/median %.1f dB, "
              "notch %s\n",
              trial.rx.interferer.detected ? "yes" : "no",
              trial.rx.interferer.frequency_hz / 1e6, trial.rx.interferer.peak_over_median_db,
              trial.rx.notch_applied ? "engaged" : "off");
  return 0;
}
