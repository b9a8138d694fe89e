// Adaptive reconfiguration demo (paper Section 3, closing paragraph): the
// receiver trades power against QoS "adapting to channel conditions". The
// LinkAdapter watches each packet's diagnostics and walks the back-end
// configuration ladder as the environment changes from a benign LOS
// channel to severe NLOS multipath and back.
//
// Part 2 then uses the parallel sweep engine to quantify what each rung of
// the ladder is worth in each environment: a scenario built inline
// (environment axis x back-end axis) fans trials out over all cores and
// writes bench/results/adaptive_rungs.json.

#include <cstdio>

#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "sim/adaptive.h"
#include "sim/scenario.h"
#include "txrx/link.h"
#include "txrx/power_model.h"

namespace {

using namespace uwb;

/// The adapter's rung written as a scenario variant, so the sweep measures
/// exactly the configurations the controller switches between.
engine::Gen2Variant rung_variant(const sim::AdaptationDecision& decision) {
  return {decision.rung, [decision](txrx::Gen2Config& config, txrx::TrialOptions&) {
            sim::LinkAdapter::apply(decision, config);
          }};
}

}  // namespace

int main() {
  using namespace uwb;

  txrx::Gen2Config config = sim::gen2_fast();
  txrx::Gen2Link link(config, /*seed=*/0xADA);
  sim::LinkAdapter adapter(1.0 / config.prf_hz);

  // Environment schedule: (channel model, Eb/N0, packets).
  struct Phase {
    const char* name;
    int cm;
    double ebn0_db;
    int packets;
  };
  const Phase phases[] = {
      {"LOS, strong signal (CM1, 24 dB)", 1, 24.0, 6},
      {"NLOS, severe multipath (CM4, 14 dB)", 4, 14.0, 6},
      {"back to LOS (CM1, 24 dB)", 1, 24.0, 6},
  };

  std::printf("Adaptive gen-2 link: the controller walks the power/QoS ladder\n");
  std::printf("----------------------------------------------------------------\n");

  for (const auto& phase : phases) {
    std::printf("\n>> %s\n", phase.name);
    std::size_t bits = 0, errors = 0;
    for (int p = 0; p < phase.packets; ++p) {
      txrx::TrialOptions options;
      options.payload_bits = 200;
      options.cm = phase.cm;
      options.ebn0_db = phase.ebn0_db;

      const auto trial = link.run_packet_full(options);
      bits += trial.outcome.bits;
      errors += trial.outcome.errors;

      // Observe, decide, reconfigure the receiver for the next packet.
      const auto decision = adapter.update(sim::observe(trial.rx));
      sim::LinkAdapter::apply(decision, link.receiver().mutable_config());

      txrx::Gen2Config snapshot = config;
      sim::LinkAdapter::apply(decision, snapshot);
      const double power_mw = txrx::gen2_power(snapshot).total_w() * 1e3;
      std::printf("  pkt %d: spread %4.1f ns, snr %5.1f dB -> rung %-8s "
                  "(%2zu fingers, MLSE %s, %5.1f mW)\n",
                  p, trial.rx.channel_estimate.rms_delay_spread() * 1e9,
                  trial.rx.snr_estimate_db, decision.rung.c_str(), decision.rake_fingers,
                  decision.use_mlse ? "on " : "off", power_mw);
    }
    std::printf("  phase BER: %zu/%zu\n", errors, bits);
  }

  // ---- Part 2: what does each rung buy in each environment? ----
  // Sweep the controller's own rungs over the demo's two environments on
  // the parallel engine. This is the measured version of the table the
  // adapter is implicitly walking.
  std::printf("\nRung value per environment (parallel sweep engine):\n\n");

  txrx::TrialOptions base_options;
  base_options.payload_bits = 200;

  // The rung axis comes straight from the controller's own ladder, so the
  // sweep measures exactly the configurations it switches between.
  std::vector<engine::Gen2Variant> rung_axis;
  for (const auto& decision : sim::LinkAdapter::ladder()) {
    rung_axis.push_back(rung_variant(decision));
  }

  engine::Gen2ScenarioBuilder builder("adaptive_rungs", config, base_options);
  builder.description("LinkAdapter ladder rungs measured in the demo's environments")
      .axis("environment",
            {{"CM1@24dB",
              [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                o.cm = 1;
                o.ebn0_db = 24.0;
              }},
             {"CM4@14dB",
              [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                o.cm = 4;
                o.ebn0_db = 14.0;
              }}})
      .axis("rung", std::move(rung_axis));

  engine::SweepConfig sweep_config;
  sweep_config.seed = 0xADA;
  sweep_config.stop.min_errors = 20;
  sweep_config.stop.max_bits = 20000;

  engine::ConsoleTableSink console;
  engine::JsonSink json(engine::default_result_path("adaptive_rungs", "json"));
  engine::SweepEngine sweep(sweep_config);
  sweep.run(builder.build(), {&console, &json});

  std::printf("\nThe controller's policy follows this table: benign channels tolerate\n"
              "the minimal rung's power, severe multipath needs the maximal rung's\n"
              "fingers and MLSE states. (raw points: %s)\n", json.path().c_str());
  return 0;
}
