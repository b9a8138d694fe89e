// Modulation comparison (paper Section 3): the discrete prototype "is also
// flexible enough to generate all kinds of signals within a bandwidth of
// 500 MHz, allowing the comparison between different modulation schemes."
// This example plays that role: the same pulse engine carries BPSK, OOK,
// binary PPM and 4-PAM, and we compare measured BER against theory.

#include <cstdio>

#include "common/math_utils.h"
#include "sim/ber_simulator.h"
#include "sim/scenario.h"
#include "sim/table.h"
#include "txrx/link.h"

int main() {
  using namespace uwb;

  const double ebn0_db = 9.0;
  const double ebn0 = from_db(ebn0_db);

  sim::Table table({"scheme", "bits/sym", "measured BER", "theory BER", "notes"});

  struct Row {
    phy::Modulation scheme;
    double theory;
    const char* notes;
  };
  const Row rows[] = {
      {phy::Modulation::kBpsk, bpsk_awgn_ber(ebn0), "antipodal reference"},
      {phy::Modulation::kOok, ook_awgn_ber(ebn0), "3 dB from BPSK"},
      {phy::Modulation::kPpm, ppm_awgn_ber(ebn0), "orthogonal positions"},
      {phy::Modulation::kPam4, pam4_awgn_ber(ebn0), "2 bits/symbol"},
  };

  for (const auto& row : rows) {
    txrx::Gen2Config config = sim::gen2_fast();
    config.modulation = row.scheme;
    config.use_mlse = false;  // plain correlator demod for a fair comparison

    txrx::Gen2Link link(config, 0xD15C);
    txrx::TrialOptions options;
    options.payload_bits = 400;
    options.ebn0_db = ebn0_db;

    sim::BerStop stop;
    stop.min_errors = 40;
    stop.max_bits = 150000;
    const sim::BerPoint point = sim::measure_ber([&] { return link.run_packet(options); }, stop);

    const auto mod = phy::make_modulator(row.scheme, config.prf_hz);
    table.add_row({to_string(row.scheme), sim::Table::integer(mod->bits_per_symbol()),
                   sim::Table::sci(point.ber), sim::Table::sci(row.theory), row.notes});
  }

  std::printf("Modulation comparison on the gen-2 pulse engine, Eb/N0 = %.0f dB (AWGN)\n\n%s",
              ebn0_db, table.to_string().c_str());
  std::printf("\nAll schemes ride the same 500 MHz RRC pulse at 100 MHz PRF -- exactly the\n"
              "flexibility the paper's discrete prototype provides.\n");
  return 0;
}
