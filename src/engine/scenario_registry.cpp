#include "engine/scenario_registry.h"

#include <cstdio>

#include "common/error.h"
#include "fec/convolutional.h"
#include "sim/scenario.h"
#include "stats/sampling.h"

namespace uwb::engine {

namespace builder_detail {

std::string format_axis_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string channel_axis_name(int cm) {
  return cm == 0 ? "AWGN" : "CM" + std::to_string(cm);
}

std::string join_axis_label(const std::vector<std::pair<std::string, std::string>>& tags) {
  std::string label;
  for (const auto& [key, value] : tags) {
    (void)key;
    if (!label.empty()) label += " | ";
    label += value;
  }
  return label;
}

}  // namespace builder_detail

// ----------------------------------------------------------- PointSpec ----

std::string PointSpec::tag(const std::string& key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return v;
  }
  return {};
}

// ---------------------------------------------------- restrict_scenario ----

void restrict_scenario(ScenarioSpec& scenario, const std::string& axis,
                       const std::string& values) {
  detail::require(!axis.empty(), "scenario override: empty axis name");
  bool axis_known = false;
  for (const auto& point : scenario.points) {
    for (const auto& [key, value] : point.tags) {
      (void)value;
      if (key == axis) {
        axis_known = true;
        break;
      }
    }
    if (axis_known) break;
  }
  detail::require(axis_known, "scenario '" + scenario.name + "' has no axis '" + axis +
                                  "' (override '" + axis + "=" + values + "')");

  std::vector<std::string> wanted;
  std::string::size_type start = 0;
  while (start <= values.size()) {
    const auto comma = values.find(',', start);
    const auto end = comma == std::string::npos ? values.size() : comma;
    wanted.push_back(values.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  std::vector<PointSpec> kept;
  for (auto& point : scenario.points) {
    const std::string value = point.tag(axis);
    for (const auto& w : wanted) {
      if (value == w) {
        kept.push_back(std::move(point));
        break;
      }
    }
  }
  detail::require(!kept.empty(), "scenario '" + scenario.name + "': no point has " + axis +
                                     " in '" + values + "'");
  scenario.points = std::move(kept);
}

// ----------------------------------------------------- ScenarioRegistry ----

namespace {

/// The paper's standard grids; each mirrors (and replaces) a hand-rolled
/// bench loop. Kept as factories so config structs are built on demand.
void register_builtins(ScenarioRegistry& registry) {
  registry.add("gen2_cm_grid", [] {
    txrx::TrialOptions options;
    options.payload_bits = 300;
    Gen2ScenarioBuilder builder("gen2_cm_grid", sim::gen2_fast(), options);
    builder.description("gen-2 100 Mbps link across CM0-CM4: full back end vs matched filter")
        .channels({0, 1, 2, 3, 4})
        .ebn0_grid({8.0, 12.0, 16.0})
        .axis("backend",
              {{"full", [](txrx::Gen2Config&, txrx::TrialOptions&) {}},
               {"mf_only", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.use_rake = false;
                  c.use_mlse = false;
                }}});
    return builder.build();
  });

  registry.add("gen1_waterfall", [] {
    txrx::TrialOptions options = txrx::default_options(Generation::kGen1);
    options.payload_bits = 48;
    options.genie_timing = true;
    Gen1ScenarioBuilder builder("gen1_waterfall", sim::gen1_fast(), options);
    builder.description("gen-1 193 kbps link: BER waterfall vs Eb/N0 on AWGN")
        .ebn0_grid({4.0, 6.0, 8.0, 10.0});
    return builder.build();
  });

  registry.add("gen2_backend_ladder", [] {
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 3;
    options.ebn0_db = 14.0;
    Gen2ScenarioBuilder builder("gen2_backend_ladder", sim::gen2_fast(), options);
    builder
        .description("power/complexity/QoS reconfiguration ladder on CM3 at 14 dB")
        .axis("backend",
              {{"minimal",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.rake.num_fingers = 2;
                  c.use_mlse = false;
                  c.mlse.memory = 1;
                  c.sar.bits = 3;
                }},
               {"low",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.rake.num_fingers = 4;
                  c.use_mlse = false;
                  c.mlse.memory = 1;
                  c.sar.bits = 4;
                }},
               {"nominal",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.rake.num_fingers = 8;
                  c.use_mlse = true;
                  c.mlse.memory = 3;
                  c.sar.bits = 5;
                }},
               {"maximal",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.rake.num_fingers = 16;
                  c.use_mlse = true;
                  c.mlse.memory = 5;
                  c.sar.bits = 6;
                }},
               {"coded", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.payload_bits = 200;
                  o.fec = fec::k7_rate_half();
                }}});
    return builder.build();
  });

  registry.add("gen2_interferer_notch", [] {
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 1;
    options.ebn0_db = 12.0;
    options.interferer = true;
    options.interferer_freq_hz = 80e6;
    Gen2ScenarioBuilder builder("gen2_interferer_notch", sim::gen2_fast(), options);
    builder
        .description("CW interferer vs the spectral-monitor-driven notch on CM1 at 12 dB")
        .axis("sir_db",
              {{"0", [](txrx::Gen2Config&, txrx::TrialOptions& o) { o.interferer_sir_db = 0.0; }},
               {"-10", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.interferer_sir_db = -10.0;
                }}})
        .axis("notch", {{"off", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                           o.auto_notch = false;
                         }},
                        {"auto", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                           o.auto_notch = true;
                         }}});
    return builder.build();
  });

  registry.add("gen2_modulation", [] {
    txrx::TrialOptions options;
    options.payload_bits = 300;
    Gen2ScenarioBuilder builder("gen2_modulation", sim::gen2_fast(), options);
    builder.description("modulation formats on AWGN (RAKE soft path, MLSE off)")
        .axis("modulation",
              {{"bpsk", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.modulation = phy::Modulation::kBpsk;
                  c.use_mlse = false;  // MLSE off everywhere: isolate the mapping
                }},
               {"ook", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.modulation = phy::Modulation::kOok;
                  c.use_mlse = false;
                }},
               {"ppm", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.modulation = phy::Modulation::kPpm;
                  c.use_mlse = false;
                }},
               {"pam4", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.modulation = phy::Modulation::kPam4;
                  c.use_mlse = false;
                }}})
        .ebn0_grid({8.0, 12.0, 16.0});
    return builder.build();
  });

  registry.add("gen2_adc_resolution", [] {
    // E5's grid: BER vs SAR resolution, noise-limited vs a strong CW
    // interferer vs interferer + auto notch (ref [1]'s "1 bit suffices
    // noise-limited, 4 bits with an interferer").
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.ebn0_db = 10.0;
    Gen2ScenarioBuilder builder("gen2_adc_resolution", sim::gen2_fast(), options);
    builder
        .description("BER vs SAR ADC resolution: noise-limited vs CW interferer vs notch")
        .axis("adc_bits",
              [] {
                std::vector<Gen2Variant> variants;
                for (int bits : {1, 2, 3, 4, 5, 6}) {
                  variants.push_back({std::to_string(bits),
                                      [bits](txrx::Gen2Config& c, txrx::TrialOptions&) {
                                        c.sar.bits = bits;
                                        c.use_mlse = false;  // isolate the converter
                                      }});
                }
                return variants;
              }())
        .axis("regime",
              {{"clean",
                [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.run_spectral_monitor = false;
                }},
               {"interferer",
                [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.interferer = true;
                  o.interferer_sir_db = -15.0;
                  o.interferer_freq_hz = 140e6;
                  o.run_spectral_monitor = true;
                }},
               {"notched", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.interferer = true;
                  o.interferer_sir_db = -15.0;
                  o.interferer_freq_hz = 140e6;
                  o.run_spectral_monitor = true;
                  o.auto_notch = true;  // the paper's mitigation: monitor + notch
                }}});
    return builder.build();
  });

  registry.add("gen1_acquisition", [] {
    // E11's grid (Section 1's "~20 us" preamble budget): detection /
    // timing reliability and lock time vs preamble length and Eb/N0.
    // Acquisition-kind trials: bits/errors count attempts and timing
    // failures; acquired / timing_correct / sync_time_s ride as metrics
    // (sync_time_s averages the detected trials only).
    txrx::TrialOptions options = txrx::default_options(Generation::kGen1);
    options.kind = txrx::TrialKind::kAcquisition;
    options.payload_bits = 8;
    options.genie_timing = false;
    Gen1ScenarioBuilder builder("gen1_acquisition", sim::gen1_nominal(), options);
    builder
        .description("gen-1 acquisition reliability vs preamble repetitions and Eb/N0")
        .axis("preamble_reps",
              [] {
                std::vector<Gen1Variant> variants;
                for (int reps : {2, 3}) {
                  variants.push_back({std::to_string(reps),
                                      [reps](txrx::Gen1Config& c, txrx::TrialOptions&) {
                                        c.preamble_repetitions = reps;
                                      }});
                }
                return variants;
              }())
        .ebn0_grid({8.0, 10.0, 12.0, 14.0});
    return builder.build();
  });

  registry.add("gen1_sync", [] {
    // E2's grid (Fig. 1): correlator-bank parallelism vs modeled sync time
    // and detection statistics -- "packet synchronization ... in less than
    // 70 us" through further parallelization.
    txrx::TrialOptions options = txrx::default_options(Generation::kGen1);
    options.kind = txrx::TrialKind::kAcquisition;
    options.payload_bits = 8;
    options.genie_timing = false;
    options.ebn0_db = 18.0;
    Gen1ScenarioBuilder builder("gen1_sync", sim::gen1_nominal(), options);
    builder
        .description("gen-1 sync time vs stage-1 correlator parallelism at 18 dB")
        .axis("parallelism", [] {
          std::vector<Gen1Variant> variants;
          for (std::size_t p1 : {8u, 32u, 128u, 648u}) {
            variants.push_back({std::to_string(p1),
                                [p1](txrx::Gen1Config& c, txrx::TrialOptions&) {
                                  c.acq_parallelism_stage1 = p1;
                                }});
          }
          return variants;
        }());
    return builder.build();
  });

  registry.add("gen2_chanest_precision", [] {
    // E6's grid (Section 3): BER vs the per-tap quantization of the
    // channel estimate feeding RAKE and MLSE ("a precision of up to four
    // bits"); tap_bits = "float" is the unquantized reference.
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 2;
    options.ebn0_db = 13.0;
    Gen2ScenarioBuilder builder("gen2_chanest_precision", sim::gen2_fast(), options);
    builder
        .description("BER vs channel-estimate tap precision on CM2 (paper: 4 bits)")
        .axis("tap_bits", [] {
          std::vector<Gen2Variant> variants;
          for (int bits : {0, 1, 2, 3, 4, 6}) {
            variants.push_back({bits == 0 ? "float" : std::to_string(bits),
                                [bits](txrx::Gen2Config& c, txrx::TrialOptions&) {
                                  c.chanest.quantization_bits = bits;
                                }});
          }
          return variants;
        }());
    return builder.build();
  });

  registry.add("gen2_mlse_isi", [] {
    // E8's first grid (Sections 1+3): matched filter vs RAKE vs RAKE+MLSE
    // across channel severities -- "the ISI due to multipath can be
    // addressed with a Viterbi demodulator".
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.ebn0_db = 14.0;
    Gen2ScenarioBuilder builder("gen2_mlse_isi", sim::gen2_fast(), options);
    builder
        .description("MF vs RAKE vs RAKE+MLSE across CM1-CM4 at 14 dB")
        .channels({1, 2, 3, 4})
        .axis("backend",
              {{"mf_only",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.use_rake = false;
                  c.use_mlse = false;
                }},
               {"rake",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.use_mlse = false;
                }},
               {"rake_mlse", [](txrx::Gen2Config&, txrx::TrialOptions&) {}}});
    return builder.build();
  });

  registry.add("gen2_mlse_memory", [] {
    // E8's second grid: the MLSE trellis-memory knob (the "States" input
    // of Fig. 3) on the most dispersive channel.
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 4;
    options.ebn0_db = 14.0;
    Gen2ScenarioBuilder builder("gen2_mlse_memory", sim::gen2_fast(), options);
    builder.description("MLSE trellis memory vs BER on CM4 at 14 dB")
        .axis("memory", [] {
          std::vector<Gen2Variant> variants;
          for (int memory : {1, 2, 3, 5}) {
            variants.push_back({std::to_string(memory),
                                [memory](txrx::Gen2Config& c, txrx::TrialOptions&) {
                                  c.mlse.memory = memory;
                                }});
          }
          return variants;
        }());
    return builder.build();
  });

  registry.add("gen2_rake_fingers", [] {
    // E7's BER half: finger count vs BER on CM2 at 12 dB (selective RAKE +
    // MLSE), the knee that makes a programmable finger count a power knob.
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 2;
    options.ebn0_db = 12.0;
    Gen2ScenarioBuilder builder("gen2_rake_fingers", sim::gen2_fast(), options);
    builder.description("RAKE finger count vs BER on CM2 at 12 dB (selective RAKE + MLSE)")
        .axis("fingers", [] {
          std::vector<Gen2Variant> variants;
          for (std::size_t fingers : {1u, 2u, 4u, 8u, 16u}) {
            variants.push_back({std::to_string(fingers),
                                [fingers](txrx::Gen2Config& c, txrx::TrialOptions&) {
                                  c.rake.num_fingers = fingers;
                                }});
          }
          return variants;
        }());
    return builder.build();
  });

  registry.add("gen2_pulse_shape", [] {
    // E1's link-level half: does the Fig. 4 pulse choice (RRC vs Gaussian
    // envelope, same 500 MHz bandwidth) cost BER on AWGN? Spectral
    // observables stay in bench_fig4_pulse; this grid is the engine-run
    // companion.
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.cm = 0;
    Gen2ScenarioBuilder builder("gen2_pulse_shape", sim::gen2_fast(), options);
    builder
        .description("gen-2 100 Mbps link on AWGN: RRC (Fig. 4) vs Gaussian pulse envelope")
        .axis("pulse",
              {{"rrc",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.pulse.shape = pulse::PulseShape::kRootRaisedCos;
                }},
               {"gaussian",
                [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                  c.pulse.shape = pulse::PulseShape::kGaussian;
                }}})
        .ebn0_grid({4.0, 6.0, 8.0, 10.0});
    return builder.build();
  });

  registry.add("gen2_cm_grid_deep", [] {
    // The rare-event companion to gen2_cm_grid: Eb/N0 pushed into the
    // BER <= 1e-5 regime where plain Monte-Carlo sees zero errors on any
    // sane budget (6 dB stays shallow as the plain-vs-IS agreement
    // point). The "sampling" axis pairs every point with its noise-tilted
    // importance-sampled twin; CM1 points share a fixed channel ensemble
    // so the plain/IS comparison is over the same physical channels, not
    // two different fading draws.
    txrx::TrialOptions options;
    options.payload_bits = 300;
    options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
    options.channel_source.ensemble_count = 32;
    Gen2ScenarioBuilder builder("gen2_cm_grid_deep", sim::gen2_fast(), options);
    builder
        .description("gen-2 deep-BER grid on AWGN/CM1: plain MC vs noise-tilt IS")
        .channels({0, 1})
        .ebn0_grid({6.0, 10.0, 12.0, 14.0, 16.0, 20.0})
        .axis("sampling",
              {{"plain", [](txrx::Gen2Config&, txrx::TrialOptions&) {}},
               {"is", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                  o.sampling.mode = stats::SamplingMode::kAutoLadder;
                  o.sampling.max_scale = 6.0;
                  o.sampling.levels = 4;
                }}});
    return builder.build();
  });

  registry.add("gen2_spectral_monitor", [] {
    // E9's detection half on the engine: detection probability, tone
    // frequency error and peak-over-median margin vs SIR, recorded as
    // per-point metrics (the BER column doubles as the jammed link's
    // packet error floor at 12 dB).
    txrx::TrialOptions options;
    options.payload_bits = 200;
    options.ebn0_db = 12.0;
    options.interferer = true;
    options.interferer_freq_hz = 150e6;
    options.run_spectral_monitor = true;
    Gen2ScenarioBuilder builder("gen2_spectral_monitor", sim::gen2_fast(), options);
    builder
        .description("spectral monitor: detection rate and tone frequency error vs SIR")
        .axis("sir_db", [] {
          std::vector<Gen2Variant> variants;
          for (double sir : {10.0, 0.0, -10.0, -20.0}) {
            variants.push_back({builder_detail::format_axis_number(sir),
                                [sir](txrx::Gen2Config&, txrx::TrialOptions& o) {
                                  o.interferer_sir_db = sir;
                                }});
          }
          return variants;
        }());
    return builder.build();
  });
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* instance = [] {
    auto* registry = new ScenarioRegistry();
    register_builtins(*registry);
    return registry;
  }();
  return *instance;
}

void ScenarioRegistry::add(const std::string& name, Factory factory) {
  detail::require(!name.empty(), "ScenarioRegistry: empty scenario name");
  std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = std::move(factory);
}

ScenarioSpec ScenarioRegistry::make(const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      throw InvalidArgument("ScenarioRegistry: unknown scenario '" + name + "'");
    }
    factory = it->second;
  }
  return factory();
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    (void)factory;
    out.push_back(name);
  }
  return out;
}

}  // namespace uwb::engine
