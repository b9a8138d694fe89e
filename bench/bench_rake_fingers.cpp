// E7 (Sections 1 and 3): "The energy spread caused by the multipath can be
// compensated using a RAKE receiver" -- programmable finger count in gen-2.
// Reports multipath energy capture vs finger count over CM realizations and
// the BER it buys.
//
// BER runs on the parallel sweep engine via the "gen2_rake_fingers"
// registry scenario (CM2 at 12 dB, axis "fingers"); raw points land in
// bench/results/gen2_rake_fingers.json. The receiver-side capture estimate
// comes from a few probe packets through the generation-agnostic
// txrx::Link interface.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "channel/saleh_valenzuela.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "equalizer/rake.h"
#include "sim/scenario.h"

int main() {
  using namespace uwb;
  const uint64_t seed = 0xE7;
  bench::print_header("E7 / Sections 1+3", "RAKE finger count vs energy capture and BER",
                      seed);

  // --- Energy capture statistics straight from the channel model ----------
  std::printf("Average fraction of channel energy captured by the N strongest taps\n"
              "(%d realizations per model):\n\n",
              bench::fast_mode() ? 40 : 200);
  sim::Table capture({"model", "N=1", "N=2", "N=4", "N=8", "N=16", "rms spread"});
  const int realizations = bench::fast_mode() ? 40 : 200;
  for (int cm = 1; cm <= 4; ++cm) {
    const channel::SalehValenzuela sv(channel::cm_by_index(cm));
    Rng rng(seed + static_cast<uint64_t>(cm));
    double cap[5] = {0, 0, 0, 0, 0};
    double spread = 0.0;
    const std::size_t fingers[5] = {1, 2, 4, 8, 16};
    for (int r = 0; r < realizations; ++r) {
      const channel::Cir cir = sv.realize(rng);
      for (int k = 0; k < 5; ++k) cap[k] += cir.energy_capture(fingers[k]);
      spread += cir.rms_delay_spread();
    }
    capture.add_row({"CM" + std::to_string(cm), sim::Table::percent(cap[0] / realizations, 0),
                     sim::Table::percent(cap[1] / realizations, 0),
                     sim::Table::percent(cap[2] / realizations, 0),
                     sim::Table::percent(cap[3] / realizations, 0),
                     sim::Table::percent(cap[4] / realizations, 0),
                     sim::Table::num(spread / realizations * 1e9, 1) + " ns"});
  }
  std::printf("%s", capture.to_string().c_str());

  // --- BER vs finger count on CM2 (full receiver: RAKE + MLSE) -------------
  std::printf("\nBER at 100 Mbps, CM2, Eb/N0 = 12 dB (selective RAKE + MLSE):\n\n");

  engine::SweepConfig sweep_config;
  sweep_config.seed = seed;
  sweep_config.workers = bench::worker_count();
  sweep_config.stop = bench::stop_rule(40, 60000);

  engine::JsonSink json(engine::default_result_path("gen2_rake_fingers", "json"));
  engine::SweepEngine sweep(sweep_config);
  const engine::ScenarioSpec scenario =
      engine::ScenarioRegistry::global().make("gen2_rake_fingers");
  const engine::SweepResult result = sweep.run(scenario, {&json});

  sim::Table ber_table({"fingers", "BER", "RAKE capture (rx estimate)"});
  const int probe_packets = bench::fast_mode() ? 4 : 12;
  for (const auto& record : result.records) {
    // Receiver-side capture estimate: probe packets through the unified
    // Link interface (the rake_energy_capture metric is the RAKE's own
    // capture number).
    const auto link = txrx::make_link(record.spec.link, seed);
    Rng probe_rng(seed ^ record.index);
    double capture_acc = 0.0;
    for (int p = 0; p < probe_packets; ++p) {
      const sim::TrialOutcome trial = link->run_packet(record.spec.link.options, probe_rng);
      capture_acc += trial.metric(txrx::metric_names::kRakeEnergyCapture).value_or(0.0);
    }
    ber_table.add_row({record.spec.tag("fingers"), sim::Table::sci(record.ber.ber),
                       sim::Table::percent(capture_acc / probe_packets, 0)});
  }
  std::printf("%s", ber_table.to_string().c_str());
  std::printf("\n(results: %s)\n", json.path().c_str());
  std::printf("\nShape check: capture (and BER) improve steeply up to ~4-8 fingers, then\n"
              "saturate -- the knee that makes a *programmable* finger count a power\n"
              "knob (E13) rather than a fixed design choice.\n");
  return 0;
}
