#include "io/spec_io.h"

#include "common/error.h"
#include "io/file.h"

namespace uwb::io {

namespace {

// ------------------------------------------------------------- enum names ----

constexpr Named<txrx::Generation> kGenerations[] = {{txrx::Generation::kGen1, "gen1"},
                                                    {txrx::Generation::kGen2, "gen2"}};
constexpr Named<txrx::TrialKind> kTrialKinds[] = {{txrx::TrialKind::kPacket, "packet"},
                                                  {txrx::TrialKind::kAcquisition, "acquisition"}};
constexpr Named<txrx::ChannelSource::Mode> kChannelModes[] = {
    {txrx::ChannelSource::Mode::kFresh, "fresh"},
    {txrx::ChannelSource::Mode::kEnsemble, "ensemble"}};
constexpr Named<pulse::PulseShape> kPulseShapes[] = {
    {pulse::PulseShape::kGaussian, "gaussian"},
    {pulse::PulseShape::kGaussianMono, "gaussian_mono"},
    {pulse::PulseShape::kGaussianDoublet, "gaussian_doublet"},
    {pulse::PulseShape::kRootRaisedCos, "rrc"},
    {pulse::PulseShape::kRectangular, "rect"}};
constexpr Named<phy::Modulation> kModulations[] = {{phy::Modulation::kBpsk, "bpsk"},
                                                   {phy::Modulation::kOok, "ook"},
                                                   {phy::Modulation::kPpm, "ppm"},
                                                   {phy::Modulation::kPam4, "pam4"}};
constexpr Named<equalizer::FingerPolicy> kFingerPolicies[] = {
    {equalizer::FingerPolicy::kAll, "all"},
    {equalizer::FingerPolicy::kSelective, "selective"},
    {equalizer::FingerPolicy::kPartial, "partial"}};
constexpr Named<stats::SamplingMode> kSamplingModes[] = {
    {stats::SamplingMode::kNone, "none"},
    {stats::SamplingMode::kNoiseScale, "noise_scale"},
    {stats::SamplingMode::kAutoLadder, "auto_ladder"}};

constexpr Document kSpec{"spec", Missing::kKeepDefault};

// ----------------------------------------------------------------- bounds ----
// Checked once a document's struct is read, so no spec can load past them.

void check(const txrx::TrialOptions& options) {
  detail::require(options.channel_source.ensemble_count <=
                      txrx::ChannelSource::kMaxEnsembleCount,
                  "spec: channel_source: ensemble_count " +
                      std::to_string(options.channel_source.ensemble_count) +
                      " exceeds the maximum " +
                      std::to_string(txrx::ChannelSource::kMaxEnsembleCount));
  detail::require(options.payload_bits <= txrx::TrialOptions::kMaxPayloadBits,
                  "spec: options: payload_bits " + std::to_string(options.payload_bits) +
                      " exceeds the maximum " +
                      std::to_string(txrx::TrialOptions::kMaxPayloadBits));
  stats::validate(options.sampling);
}

}  // namespace

// ------------------------------------------------------------ field lists ----
// Each config struct names its fields once, in document order (see
// io/fields.h).

template <typename V>
void fields(V& v, Of<txrx::ChannelSource> auto& s) {
  v("mode", s.mode, kChannelModes);
  v("ensemble_seed", s.ensemble_seed);
  v("ensemble_count", s.ensemble_count);
}

template <typename V>
void fields(V& v, Of<fec::ConvCode> auto& s) {
  v("constraint_length", s.constraint_length);
  v("generators", s.generators);
}

template <typename V>
void fields(V& v, Of<stats::SamplingPolicy> auto& s) {
  v("mode", s.mode, kSamplingModes);
  v("scale", s.scale);
  v("max_scale", s.max_scale);
  v("levels", s.levels);
}

template <typename V>
void fields(V& v, Of<txrx::TrialOptions> auto& s) {
  v("kind", s.kind, kTrialKinds);
  v("cm", s.cm);
  v("channel_source", s.channel_source);
  v("ebn0_db", s.ebn0_db);
  v("payload_bits", s.payload_bits);
  v("genie_timing", s.genie_timing);
  v("start_delay_max_samples", s.start_delay_max_samples);
  v("start_delay_max_frames", s.start_delay_max_frames);
  v("interferer", s.interferer);
  v("interferer_sir_db", s.interferer_sir_db);
  v("interferer_freq_hz", s.interferer_freq_hz);
  v("auto_notch", s.auto_notch);
  v("run_spectral_monitor", s.run_spectral_monitor);
  v("fec", s.fec);
  v("acq_tol_samples", s.acq_tol_samples);
  // Written only when active: plain Monte-Carlo specs keep their exact
  // historical byte layout.
  v.field_if(s.sampling.active(), "sampling", s.sampling);
  v("record_metrics", s.record_metrics);
}

template <typename V>
void fields(V& v, Of<phy::PacketConfig> auto& s) {
  v("preamble_msequence_degree", s.preamble_msequence_degree);
  v("preamble_repetitions", s.preamble_repetitions);
  v("sfd_length", s.sfd_length);
  v("header_length_bits", s.header_length_bits);
}

template <typename V>
void fields(V& v, Of<adc::InterleaveMismatch> auto& s) {
  v("gain_sigma", s.gain_sigma);
  v("offset_sigma", s.offset_sigma);
  v("timing_skew_sigma_s", s.timing_skew_sigma_s);
}

template <typename V>
void fields(V& v, Of<adc::SarParams> auto& s) {
  v("bits", s.bits);
  v("full_scale", s.full_scale);
  v("cap_mismatch_sigma", s.cap_mismatch_sigma);
  v("comparator_noise", s.comparator_noise);
}

template <typename V>
void fields(V& v, Of<pulse::PulseSpec> auto& s) {
  v("shape", s.shape, kPulseShapes);
  v("bandwidth_hz", s.bandwidth_hz);
  v("sample_rate_hz", s.sample_rate_hz);
  v("rrc_beta", s.rrc_beta);
  v("rrc_span_symbols", s.rrc_span_symbols);
}

template <typename V>
void fields(V& v, Of<rf::LnaParams> auto& s) {
  v("gain_db", s.gain_db);
  v("noise_figure_db", s.noise_figure_db);
  v("headroom_db", s.headroom_db);
}

template <typename V>
void fields(V& v, Of<rf::IqImpairments> auto& s) {
  v("gain_imbalance_db", s.gain_imbalance_db);
  v("phase_imbalance_rad", s.phase_imbalance_rad);
  v("dc_offset_i", s.dc_offset_i);
  v("dc_offset_q", s.dc_offset_q);
  v("lo_leakage_db", s.lo_leakage_db);
}

template <typename V>
void fields(V& v, Of<rf::SynthesizerParams> auto& s) {
  v("settle_time_s", s.settle_time_s);
  v("phase_noise_rms_rad", s.phase_noise_rms_rad);
  v("loop_bandwidth_hz", s.loop_bandwidth_hz);
}

template <typename V>
void fields(V& v, Of<rf::AgcParams> auto& s) {
  v("target_rms", s.target_rms);
  v("min_gain_db", s.min_gain_db);
  v("max_gain_db", s.max_gain_db);
}

template <typename V>
void fields(V& v, Of<rf::FrontEndParams> auto& s) {
  v("lna", s.lna);
  v("iq", s.iq);
  v("synth", s.synth);
  v("agc", s.agc);
  v("baseband_cutoff_hz", s.baseband_cutoff_hz);
  v("analog_fs", s.analog_fs);
  v("anti_alias_taps", s.anti_alias_taps);
  v("enable_agc", s.enable_agc);
}

template <typename V>
void fields(V& v, Of<estimation::ChannelEstimatorConfig> auto& s) {
  v("quantization_bits", s.quantization_bits);
  v("tap_threshold_db", s.tap_threshold_db);
  v("max_taps", s.max_taps);
  v("max_delay_samples", s.max_delay_samples);
}

template <typename V>
void fields(V& v, Of<equalizer::RakeConfig> auto& s) {
  v("policy", s.policy, kFingerPolicies);
  v("num_fingers", s.num_fingers);
}

template <typename V>
void fields(V& v, Of<equalizer::MlseConfig> auto& s) {
  v("memory", s.memory);
}

template <typename V>
void fields(V& v, Of<txrx::Gen1Config> auto& s) {
  v("analog_fs", s.analog_fs);
  v("adc_rate", s.adc_rate);
  v("frame_samples_adc", s.frame_samples_adc);
  v("pulses_per_bit", s.pulses_per_bit);
  v("pulse_sigma_s", s.pulse_sigma_s);
  v("adc_bits", s.adc_bits);
  v("adc_lanes", s.adc_lanes);
  v("comparator_offset_sigma", s.comparator_offset_sigma);
  v("interleave", s.interleave);
  v("aperture_jitter_rms_s", s.aperture_jitter_rms_s);
  v("spread_msequence_degree", s.spread_msequence_degree);
  v("preamble_pn_degree", s.preamble_pn_degree);
  v("preamble_repetitions", s.preamble_repetitions);
  v("packet", s.packet);
  v("acq_parallelism_stage1", s.acq_parallelism_stage1);
  v("acq_parallelism_stage2", s.acq_parallelism_stage2);
  v("acq_integration_frames", s.acq_integration_frames);
  v("acq_stage2_window_frames", s.acq_stage2_window_frames);
  v("acq_threshold", s.acq_threshold);
}

template <typename V>
void fields(V& v, Of<txrx::Gen2Config> auto& s) {
  v("analog_fs", s.analog_fs);
  v("adc_rate", s.adc_rate);
  v("prf_hz", s.prf_hz);
  v("channel_index", s.channel_index);
  v("pulse", s.pulse);
  v("modulation", s.modulation, kModulations);
  v("front_end", s.front_end);
  v("sar", s.sar);
  v("aperture_jitter_rms_s", s.aperture_jitter_rms_s);
  v("packet", s.packet);
  v("chanest", s.chanest);
  v("rake", s.rake);
  v("mlse", s.mlse);
  v("use_rake", s.use_rake);
  v("use_mlse", s.use_mlse);
}

// --------------------------------------------------------- config structs ----

JsonValue to_json(const txrx::TrialOptions& options) { return write_struct(options); }
JsonValue to_json(const txrx::Gen1Config& config) { return write_struct(config); }
JsonValue to_json(const txrx::Gen2Config& config) { return write_struct(config); }

txrx::TrialOptions trial_options_from_json(const JsonValue& v, txrx::TrialOptions base) {
  txrx::TrialOptions options = read_struct(v, kSpec, "options", std::move(base));
  check(options);
  return options;
}

txrx::Gen1Config gen1_config_from_json(const JsonValue& v) {
  return read_struct(v, kSpec, "gen1 config", txrx::Gen1Config{});
}

txrx::Gen2Config gen2_config_from_json(const JsonValue& v) {
  return read_struct(v, kSpec, "gen2 config", txrx::Gen2Config{});
}

// ------------------------------------------------- LinkSpec, points, plans ----
// A link's generation picks its config alternative and option defaults:
// the generation key, read first, resets both, and the config and options
// keys read on top of what it set.

constexpr Via<txrx::LinkSpec> kGenerationDefaults{
    [](const txrx::LinkSpec& spec) {
      return JsonValue::string(name_of(kGenerations, spec.generation()));
    },
    [](const JsonValue& v, txrx::LinkSpec& spec) {
      const txrx::Generation gen = value_of(kGenerations, v.as_string(), "spec", "generation");
      if (gen == txrx::Generation::kGen1) spec.config = txrx::Gen1Config{};
      else spec.config = txrx::Gen2Config{};
      spec.options = txrx::default_options(gen);
    },
    /*required=*/true};

constexpr Via<std::variant<txrx::Gen1Config, txrx::Gen2Config>> kHeldConfig{
    [](const std::variant<txrx::Gen1Config, txrx::Gen2Config>& config) {
      return std::visit([](const auto& c) { return to_json(c); }, config);
    },
    [](const JsonValue& v, std::variant<txrx::Gen1Config, txrx::Gen2Config>& config) {
      if (std::holds_alternative<txrx::Gen1Config>(config)) config = gen1_config_from_json(v);
      else config = gen2_config_from_json(v);
    }};

constexpr Via<txrx::TrialOptions> kHeldOptions{
    [](const txrx::TrialOptions& options) { return to_json(options); },
    [](const JsonValue& v, txrx::TrialOptions& options) {
      options = trial_options_from_json(v, std::move(options));
    }};

constexpr Via<txrx::LinkSpec> kLink{
    [](const txrx::LinkSpec& spec) { return to_json(spec); },
    [](const JsonValue& v, txrx::LinkSpec& spec) { spec = link_spec_from_json(v); },
    /*required=*/true};

template <typename V>
void fields(V& v, Of<txrx::LinkSpec> auto& s) {
  v("generation", s, kGenerationDefaults);
  v("config", s.config, kHeldConfig);
  v("options", s.options, kHeldOptions);
}

template <typename V>
void fields(V& v, Of<engine::PointSpec> auto& s) {
  v("label", s.label);
  v("tags", s.tags, kTagPairs);
  v("link", s.link, kLink);
}

template <typename V>
void fields(V& v, Of<engine::ScenarioSpec> auto& s) {
  v("name", s.name);
  v("description", s.description);
  v("points", s.points);
}

JsonValue to_json(const txrx::LinkSpec& spec) { return write_struct(spec); }

txrx::LinkSpec link_spec_from_json(const JsonValue& v) {
  const txrx::LinkSpec spec = read_struct(v, kSpec, "link", txrx::LinkSpec{});
  // Strict like the unknown-key checks: a typo'd metric name must fail at
  // load time, not silently record empty columns. (emits_metric also
  // rejects a trial kind the generation does not support.)
  for (const std::string& name : spec.options.record_metrics) {
    if (!txrx::emits_metric(spec.generation(), spec.options.kind, name)) {
      throw InvalidArgument("spec: options: unknown metric '" + name +
                            "' in record_metrics");
    }
  }
  return spec;
}

// ------------------------------------------------------------------ files ----

std::string scenario_to_json_text(const engine::ScenarioSpec& scenario) {
  return dump_json_pretty(write_struct(scenario));
}

engine::ScenarioSpec scenario_from_json_text(const std::string& text) {
  const engine::ScenarioSpec scenario =
      read_struct(parse_json(text), kSpec, nullptr, engine::ScenarioSpec{});
  detail::require(!scenario.name.empty(), "spec: scenario needs a non-empty 'name'");
  return scenario;
}

void save_scenario_file(const engine::ScenarioSpec& scenario, const std::string& path) {
  write_file(path, scenario_to_json_text(scenario), "spec");
}

engine::ScenarioSpec load_scenario_file(const std::string& path) {
  return scenario_from_json_text(read_file(path, "spec"));
}

}  // namespace uwb::io
