// Quickstart: send one packet through the generation-2 direct-conversion
// transceiver over a CM1 multipath channel and inspect what the receiver
// recovered.
//
//   TX bits -> RRC pulses (BPSK, 100 MHz PRF) -> 802.15.3a CM1 channel
//   -> AWGN -> direct-conversion front end -> 2x 5-bit SAR ADC -> digital
//   back end (acquisition, 4-bit channel estimation, RAKE, Viterbi/MLSE).

#include <cstdio>

#include "sim/scenario.h"
#include "txrx/link.h"

int main() {
  using namespace uwb;

  // The paper-nominal gen-2 configuration: 100 Mbps, 500 MHz pulses,
  // dual 5-bit SARs, 4-bit channel estimate, programmable RAKE + MLSE.
  txrx::Gen2Config config = sim::gen2_nominal();

  // A link bundles transmitter, receiver (with its static component
  // mismatch drawn once) and a seeded RNG: everything is reproducible.
  txrx::Gen2Link link(config, /*seed=*/42);

  txrx::TrialOptions options;
  options.payload_bits = 256;
  options.cm = 1;          // 802.15.3a CM1: 0-4 m line of sight
  options.ebn0_db = 14.0;  // comfortable operating point

  const txrx::Gen2TrialResult trial = link.run_packet_full(options);

  std::printf("Gen-2 UWB quickstart (paper: Blazquez et al., DATE 2005)\n");
  std::printf("--------------------------------------------------------\n");
  std::printf("bit rate             : %.0f Mbps\n", config.bit_rate_hz() / 1e6);
  std::printf("channel model        : CM1, rms delay spread %.1f ns\n",
              trial.true_channel.rms_delay_spread() * 1e9);
  std::printf("Eb/N0                : %.1f dB\n", options.ebn0_db);
  std::printf("acquired             : %s\n", trial.rx.acquired ? "yes" : "no");
  std::printf("timing offset        : %zu samples @ 1 GSps\n", trial.rx.timing_offset);
  std::printf("estimated CIR taps   : %zu (4-bit quantized)\n",
              trial.rx.channel_estimate.num_taps());
  std::printf("RAKE energy capture  : %.0f%%\n", 100.0 * trial.rx.rake_energy_capture);
  std::printf("SNR estimate         : %.1f dB\n", trial.rx.snr_estimate_db);
  std::printf("bit errors           : %zu / %zu\n", trial.outcome.errors,
              trial.outcome.bits);
  return trial.rx.acquired ? 0 : 1;
}
