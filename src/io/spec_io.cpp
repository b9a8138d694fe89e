#include "io/spec_io.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace uwb::io {

namespace {

// ------------------------------------------------------------ enum names ----

std::string pulse_shape_name(pulse::PulseShape shape) {
  switch (shape) {
    case pulse::PulseShape::kGaussian: return "gaussian";
    case pulse::PulseShape::kGaussianMono: return "gaussian_mono";
    case pulse::PulseShape::kGaussianDoublet: return "gaussian_doublet";
    case pulse::PulseShape::kRootRaisedCos: return "rrc";
    case pulse::PulseShape::kRectangular: return "rect";
  }
  return "?";
}

pulse::PulseShape pulse_shape_from_name(const std::string& name) {
  if (name == "gaussian") return pulse::PulseShape::kGaussian;
  if (name == "gaussian_mono") return pulse::PulseShape::kGaussianMono;
  if (name == "gaussian_doublet") return pulse::PulseShape::kGaussianDoublet;
  if (name == "rrc") return pulse::PulseShape::kRootRaisedCos;
  if (name == "rect") return pulse::PulseShape::kRectangular;
  throw InvalidArgument("spec: unknown pulse shape '" + name + "'");
}

std::string modulation_name(phy::Modulation m) {
  switch (m) {
    case phy::Modulation::kBpsk: return "bpsk";
    case phy::Modulation::kOok: return "ook";
    case phy::Modulation::kPpm: return "ppm";
    case phy::Modulation::kPam4: return "pam4";
  }
  return "?";
}

phy::Modulation modulation_from_name(const std::string& name) {
  if (name == "bpsk") return phy::Modulation::kBpsk;
  if (name == "ook") return phy::Modulation::kOok;
  if (name == "ppm") return phy::Modulation::kPpm;
  if (name == "pam4") return phy::Modulation::kPam4;
  throw InvalidArgument("spec: unknown modulation '" + name + "'");
}

std::string finger_policy_name(equalizer::FingerPolicy policy) {
  switch (policy) {
    case equalizer::FingerPolicy::kAll: return "all";
    case equalizer::FingerPolicy::kSelective: return "selective";
    case equalizer::FingerPolicy::kPartial: return "partial";
  }
  return "?";
}

equalizer::FingerPolicy finger_policy_from_name(const std::string& name) {
  if (name == "all") return equalizer::FingerPolicy::kAll;
  if (name == "selective") return equalizer::FingerPolicy::kSelective;
  if (name == "partial") return equalizer::FingerPolicy::kPartial;
  throw InvalidArgument("spec: unknown finger policy '" + name + "'");
}

std::string generation_json_name(txrx::Generation gen) { return txrx::to_string(gen); }

std::string channel_mode_name(txrx::ChannelSource::Mode mode) {
  return mode == txrx::ChannelSource::Mode::kFresh ? "fresh" : "ensemble";
}

std::string trial_kind_name(txrx::TrialKind kind) {
  return kind == txrx::TrialKind::kPacket ? "packet" : "acquisition";
}

txrx::TrialKind trial_kind_from_name(const std::string& name) {
  if (name == "packet") return txrx::TrialKind::kPacket;
  if (name == "acquisition") return txrx::TrialKind::kAcquisition;
  throw InvalidArgument("spec: unknown trial kind '" + name + "'");
}

txrx::ChannelSource::Mode channel_mode_from_name(const std::string& name) {
  if (name == "fresh") return txrx::ChannelSource::Mode::kFresh;
  if (name == "ensemble") return txrx::ChannelSource::Mode::kEnsemble;
  throw InvalidArgument("spec: unknown channel_source mode '" + name + "'");
}

txrx::Generation generation_from_name(const std::string& name) {
  if (name == "gen1") return txrx::Generation::kGen1;
  if (name == "gen2") return txrx::Generation::kGen2;
  throw InvalidArgument("spec: unknown generation '" + name + "'");
}

[[noreturn]] void unknown_key(const char* what, const std::string& key) {
  throw InvalidArgument(std::string("spec: ") + what + ": unknown key '" + key + "'");
}

std::size_t as_size(const JsonValue& v) { return static_cast<std::size_t>(v.as_uint64()); }

// --------------------------------------------------------- nested structs ----

JsonValue to_json(const txrx::ChannelSource& source) {
  JsonValue out = JsonValue::object();
  out.set("mode", JsonValue::string(channel_mode_name(source.mode)));
  out.set("ensemble_seed", JsonValue::number(source.ensemble_seed));
  out.set("ensemble_count", JsonValue::number(static_cast<uint64_t>(source.ensemble_count)));
  return out;
}

txrx::ChannelSource channel_source_from_json(const JsonValue& v) {
  txrx::ChannelSource source;
  for (const auto& [key, val] : v.members()) {
    if (key == "mode") source.mode = channel_mode_from_name(val.as_string());
    else if (key == "ensemble_seed") source.ensemble_seed = val.as_uint64();
    else if (key == "ensemble_count") source.ensemble_count = as_size(val);
    else unknown_key("channel_source", key);
  }
  detail::require(source.ensemble_count <= txrx::ChannelSource::kMaxEnsembleCount,
                  "spec: channel_source: ensemble_count " +
                      std::to_string(source.ensemble_count) + " exceeds the maximum " +
                      std::to_string(txrx::ChannelSource::kMaxEnsembleCount));
  return source;
}

JsonValue to_json(const fec::ConvCode& code) {
  JsonValue out = JsonValue::object();
  out.set("constraint_length", JsonValue::number(code.constraint_length));
  JsonValue generators = JsonValue::array();
  for (uint32_t g : code.generators) {
    generators.push_back(JsonValue::number(static_cast<uint64_t>(g)));
  }
  out.set("generators", std::move(generators));
  return out;
}

fec::ConvCode conv_code_from_json(const JsonValue& v) {
  fec::ConvCode code;
  for (const auto& [key, val] : v.members()) {
    if (key == "constraint_length") {
      code.constraint_length = val.as_int();
    } else if (key == "generators") {
      code.generators.clear();
      for (const auto& g : val.items()) {
        code.generators.push_back(static_cast<uint32_t>(g.as_uint64()));
      }
    } else {
      unknown_key("fec", key);
    }
  }
  return code;
}

JsonValue to_json(const phy::PacketConfig& packet) {
  JsonValue out = JsonValue::object();
  out.set("preamble_msequence_degree", JsonValue::number(packet.preamble_msequence_degree));
  out.set("preamble_repetitions", JsonValue::number(packet.preamble_repetitions));
  out.set("sfd_length", JsonValue::number(packet.sfd_length));
  out.set("header_length_bits", JsonValue::number(packet.header_length_bits));
  return out;
}

phy::PacketConfig packet_config_from_json(const JsonValue& v) {
  phy::PacketConfig packet;
  for (const auto& [key, val] : v.members()) {
    if (key == "preamble_msequence_degree") packet.preamble_msequence_degree = val.as_int();
    else if (key == "preamble_repetitions") packet.preamble_repetitions = val.as_int();
    else if (key == "sfd_length") packet.sfd_length = val.as_int();
    else if (key == "header_length_bits") packet.header_length_bits = val.as_int();
    else unknown_key("packet", key);
  }
  return packet;
}

JsonValue to_json(const adc::InterleaveMismatch& mismatch) {
  JsonValue out = JsonValue::object();
  out.set("gain_sigma", JsonValue::number(mismatch.gain_sigma));
  out.set("offset_sigma", JsonValue::number(mismatch.offset_sigma));
  out.set("timing_skew_sigma_s", JsonValue::number(mismatch.timing_skew_sigma_s));
  return out;
}

adc::InterleaveMismatch interleave_from_json(const JsonValue& v) {
  adc::InterleaveMismatch mismatch;
  for (const auto& [key, val] : v.members()) {
    if (key == "gain_sigma") mismatch.gain_sigma = val.as_double();
    else if (key == "offset_sigma") mismatch.offset_sigma = val.as_double();
    else if (key == "timing_skew_sigma_s") mismatch.timing_skew_sigma_s = val.as_double();
    else unknown_key("interleave", key);
  }
  return mismatch;
}

JsonValue to_json(const adc::SarParams& sar) {
  JsonValue out = JsonValue::object();
  out.set("bits", JsonValue::number(sar.bits));
  out.set("full_scale", JsonValue::number(sar.full_scale));
  out.set("cap_mismatch_sigma", JsonValue::number(sar.cap_mismatch_sigma));
  out.set("comparator_noise", JsonValue::number(sar.comparator_noise));
  return out;
}

adc::SarParams sar_from_json(const JsonValue& v) {
  adc::SarParams sar;
  for (const auto& [key, val] : v.members()) {
    if (key == "bits") sar.bits = val.as_int();
    else if (key == "full_scale") sar.full_scale = val.as_double();
    else if (key == "cap_mismatch_sigma") sar.cap_mismatch_sigma = val.as_double();
    else if (key == "comparator_noise") sar.comparator_noise = val.as_double();
    else unknown_key("sar", key);
  }
  return sar;
}

JsonValue to_json(const pulse::PulseSpec& pulse) {
  JsonValue out = JsonValue::object();
  out.set("shape", JsonValue::string(pulse_shape_name(pulse.shape)));
  out.set("bandwidth_hz", JsonValue::number(pulse.bandwidth_hz));
  out.set("sample_rate_hz", JsonValue::number(pulse.sample_rate_hz));
  out.set("rrc_beta", JsonValue::number(pulse.rrc_beta));
  out.set("rrc_span_symbols", JsonValue::number(pulse.rrc_span_symbols));
  return out;
}

pulse::PulseSpec pulse_spec_from_json(const JsonValue& v) {
  pulse::PulseSpec pulse;
  for (const auto& [key, val] : v.members()) {
    if (key == "shape") pulse.shape = pulse_shape_from_name(val.as_string());
    else if (key == "bandwidth_hz") pulse.bandwidth_hz = val.as_double();
    else if (key == "sample_rate_hz") pulse.sample_rate_hz = val.as_double();
    else if (key == "rrc_beta") pulse.rrc_beta = val.as_double();
    else if (key == "rrc_span_symbols") pulse.rrc_span_symbols = val.as_int();
    else unknown_key("pulse", key);
  }
  return pulse;
}

JsonValue to_json(const rf::FrontEndParams& fe) {
  JsonValue out = JsonValue::object();
  JsonValue lna = JsonValue::object();
  lna.set("gain_db", JsonValue::number(fe.lna.gain_db));
  lna.set("noise_figure_db", JsonValue::number(fe.lna.noise_figure_db));
  lna.set("headroom_db", JsonValue::number(fe.lna.headroom_db));
  out.set("lna", std::move(lna));

  JsonValue iq = JsonValue::object();
  iq.set("gain_imbalance_db", JsonValue::number(fe.iq.gain_imbalance_db));
  iq.set("phase_imbalance_rad", JsonValue::number(fe.iq.phase_imbalance_rad));
  iq.set("dc_offset_i", JsonValue::number(fe.iq.dc_offset_i));
  iq.set("dc_offset_q", JsonValue::number(fe.iq.dc_offset_q));
  iq.set("lo_leakage_db", JsonValue::number(fe.iq.lo_leakage_db));
  out.set("iq", std::move(iq));

  JsonValue synth = JsonValue::object();
  synth.set("settle_time_s", JsonValue::number(fe.synth.settle_time_s));
  synth.set("phase_noise_rms_rad", JsonValue::number(fe.synth.phase_noise_rms_rad));
  synth.set("loop_bandwidth_hz", JsonValue::number(fe.synth.loop_bandwidth_hz));
  out.set("synth", std::move(synth));

  JsonValue agc = JsonValue::object();
  agc.set("target_rms", JsonValue::number(fe.agc.target_rms));
  agc.set("min_gain_db", JsonValue::number(fe.agc.min_gain_db));
  agc.set("max_gain_db", JsonValue::number(fe.agc.max_gain_db));
  agc.set("window", JsonValue::number(fe.agc.window));
  agc.set("step_db", JsonValue::number(fe.agc.step_db));
  out.set("agc", std::move(agc));

  out.set("baseband_cutoff_hz", JsonValue::number(fe.baseband_cutoff_hz));
  out.set("analog_fs", JsonValue::number(fe.analog_fs));
  out.set("anti_alias_taps", JsonValue::number(fe.anti_alias_taps));
  out.set("enable_agc", JsonValue::boolean(fe.enable_agc));
  return out;
}

rf::FrontEndParams front_end_from_json(const JsonValue& v) {
  rf::FrontEndParams fe;
  for (const auto& [key, val] : v.members()) {
    if (key == "lna") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "gain_db") fe.lna.gain_db = v2.as_double();
        else if (k2 == "noise_figure_db") fe.lna.noise_figure_db = v2.as_double();
        else if (k2 == "headroom_db") fe.lna.headroom_db = v2.as_double();
        else unknown_key("lna", k2);
      }
    } else if (key == "iq") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "gain_imbalance_db") fe.iq.gain_imbalance_db = v2.as_double();
        else if (k2 == "phase_imbalance_rad") fe.iq.phase_imbalance_rad = v2.as_double();
        else if (k2 == "dc_offset_i") fe.iq.dc_offset_i = v2.as_double();
        else if (k2 == "dc_offset_q") fe.iq.dc_offset_q = v2.as_double();
        else if (k2 == "lo_leakage_db") fe.iq.lo_leakage_db = v2.as_double();
        else unknown_key("iq", k2);
      }
    } else if (key == "synth") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "settle_time_s") fe.synth.settle_time_s = v2.as_double();
        else if (k2 == "phase_noise_rms_rad") fe.synth.phase_noise_rms_rad = v2.as_double();
        else if (k2 == "loop_bandwidth_hz") fe.synth.loop_bandwidth_hz = v2.as_double();
        else unknown_key("synth", k2);
      }
    } else if (key == "agc") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "target_rms") fe.agc.target_rms = v2.as_double();
        else if (k2 == "min_gain_db") fe.agc.min_gain_db = v2.as_double();
        else if (k2 == "max_gain_db") fe.agc.max_gain_db = v2.as_double();
        else if (k2 == "window") fe.agc.window = as_size(v2);
        else if (k2 == "step_db") fe.agc.step_db = v2.as_double();
        else unknown_key("agc", k2);
      }
    } else if (key == "baseband_cutoff_hz") {
      fe.baseband_cutoff_hz = val.as_double();
    } else if (key == "analog_fs") {
      fe.analog_fs = val.as_double();
    } else if (key == "anti_alias_taps") {
      fe.anti_alias_taps = as_size(val);
    } else if (key == "enable_agc") {
      fe.enable_agc = val.as_bool();
    } else {
      unknown_key("front_end", key);
    }
  }
  return fe;
}

JsonValue to_json(const estimation::ChannelEstimatorConfig& chanest) {
  JsonValue out = JsonValue::object();
  out.set("quantization_bits", JsonValue::number(chanest.quantization_bits));
  out.set("tap_threshold_db", JsonValue::number(chanest.tap_threshold_db));
  out.set("max_taps", JsonValue::number(chanest.max_taps));
  out.set("max_delay_samples", JsonValue::number(chanest.max_delay_samples));
  return out;
}

estimation::ChannelEstimatorConfig chanest_from_json(const JsonValue& v) {
  estimation::ChannelEstimatorConfig chanest;
  for (const auto& [key, val] : v.members()) {
    if (key == "quantization_bits") chanest.quantization_bits = val.as_int();
    else if (key == "tap_threshold_db") chanest.tap_threshold_db = val.as_double();
    else if (key == "max_taps") chanest.max_taps = as_size(val);
    else if (key == "max_delay_samples") chanest.max_delay_samples = as_size(val);
    else unknown_key("chanest", key);
  }
  return chanest;
}

}  // namespace

// ----------------------------------------------------------- TrialOptions ----

JsonValue to_json(const txrx::TrialOptions& options) {
  JsonValue out = JsonValue::object();
  out.set("kind", JsonValue::string(trial_kind_name(options.kind)));
  out.set("cm", JsonValue::number(options.cm));
  out.set("channel_source", to_json(options.channel_source));
  out.set("ebn0_db", JsonValue::number(options.ebn0_db));
  out.set("payload_bits", JsonValue::number(options.payload_bits));
  out.set("genie_timing", JsonValue::boolean(options.genie_timing));
  out.set("start_delay_max_samples", JsonValue::number(options.start_delay_max_samples));
  out.set("start_delay_max_frames", JsonValue::number(options.start_delay_max_frames));
  out.set("interferer", JsonValue::boolean(options.interferer));
  out.set("interferer_sir_db", JsonValue::number(options.interferer_sir_db));
  out.set("interferer_freq_hz", JsonValue::number(options.interferer_freq_hz));
  out.set("auto_notch", JsonValue::boolean(options.auto_notch));
  out.set("run_spectral_monitor", JsonValue::boolean(options.run_spectral_monitor));
  out.set("fec", options.fec.has_value() ? to_json(*options.fec) : JsonValue::null());
  out.set("acq_tol_samples", JsonValue::number(static_cast<uint64_t>(options.acq_tol_samples)));
  if (options.sampling.active()) {
    // Written only when active: plain Monte-Carlo specs keep their exact
    // historical byte layout.
    JsonValue sampling = JsonValue::object();
    sampling.set("mode", JsonValue::string(stats::to_string(options.sampling.mode)));
    sampling.set("scale", JsonValue::number(options.sampling.scale));
    sampling.set("max_scale", JsonValue::number(options.sampling.max_scale));
    sampling.set("levels", JsonValue::number(options.sampling.levels));
    out.set("sampling", std::move(sampling));
  }
  JsonValue record = JsonValue::array();
  for (const std::string& name : options.record_metrics) {
    record.push_back(JsonValue::string(name));
  }
  out.set("record_metrics", std::move(record));
  return out;
}

txrx::TrialOptions trial_options_from_json(const JsonValue& v, txrx::TrialOptions base) {
  txrx::TrialOptions options = std::move(base);
  for (const auto& [key, val] : v.members()) {
    if (key == "kind") options.kind = trial_kind_from_name(val.as_string());
    else if (key == "cm") options.cm = val.as_int();
    else if (key == "channel_source") options.channel_source = channel_source_from_json(val);
    else if (key == "ebn0_db") options.ebn0_db = val.as_double();
    else if (key == "payload_bits") {
      options.payload_bits = as_size(val);
      if (options.payload_bits > txrx::TrialOptions::kMaxPayloadBits) {
        throw InvalidArgument("spec: options: payload_bits " +
                              std::to_string(options.payload_bits) + " exceeds the maximum " +
                              std::to_string(txrx::TrialOptions::kMaxPayloadBits));
      }
    }
    else if (key == "genie_timing") options.genie_timing = val.as_bool();
    else if (key == "start_delay_max_samples") options.start_delay_max_samples = as_size(val);
    else if (key == "start_delay_max_frames") options.start_delay_max_frames = as_size(val);
    else if (key == "interferer") options.interferer = val.as_bool();
    else if (key == "interferer_sir_db") options.interferer_sir_db = val.as_double();
    else if (key == "interferer_freq_hz") options.interferer_freq_hz = val.as_double();
    else if (key == "auto_notch") options.auto_notch = val.as_bool();
    else if (key == "run_spectral_monitor") options.run_spectral_monitor = val.as_bool();
    else if (key == "fec") {
      if (val.is_null()) options.fec.reset();
      else options.fec = conv_code_from_json(val);
    } else if (key == "acq_tol_samples") {
      options.acq_tol_samples = as_size(val);
    } else if (key == "record_metrics") {
      options.record_metrics.clear();
      for (const auto& name : val.items()) {
        options.record_metrics.push_back(name.as_string());
      }
    } else if (key == "sampling") {
      stats::SamplingPolicy policy;
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "mode") policy.mode = stats::sampling_mode_from_name(v2.as_string());
        else if (k2 == "scale") policy.scale = v2.as_double();
        else if (k2 == "max_scale") policy.max_scale = v2.as_double();
        else if (k2 == "levels") policy.levels = v2.as_int();
        else unknown_key("sampling", k2);
      }
      stats::validate(policy);
      options.sampling = policy;
    } else {
      unknown_key("options", key);
    }
  }
  return options;
}

// ------------------------------------------------------------- Gen1Config ----

JsonValue to_json(const txrx::Gen1Config& config) {
  JsonValue out = JsonValue::object();
  out.set("analog_fs", JsonValue::number(config.analog_fs));
  out.set("adc_rate", JsonValue::number(config.adc_rate));
  out.set("frame_samples_adc", JsonValue::number(config.frame_samples_adc));
  out.set("pulses_per_bit", JsonValue::number(config.pulses_per_bit));
  out.set("pulse_sigma_s", JsonValue::number(config.pulse_sigma_s));
  out.set("adc_bits", JsonValue::number(config.adc_bits));
  out.set("adc_lanes", JsonValue::number(config.adc_lanes));
  out.set("comparator_offset_sigma", JsonValue::number(config.comparator_offset_sigma));
  out.set("interleave", to_json(config.interleave));
  out.set("aperture_jitter_rms_s", JsonValue::number(config.aperture_jitter_rms_s));
  out.set("spread_msequence_degree", JsonValue::number(config.spread_msequence_degree));
  out.set("preamble_pn_degree", JsonValue::number(config.preamble_pn_degree));
  out.set("preamble_repetitions", JsonValue::number(config.preamble_repetitions));
  out.set("packet", to_json(config.packet));
  out.set("acq_parallelism_stage1", JsonValue::number(config.acq_parallelism_stage1));
  out.set("acq_parallelism_stage2", JsonValue::number(config.acq_parallelism_stage2));
  out.set("acq_integration_frames", JsonValue::number(config.acq_integration_frames));
  out.set("acq_stage2_window_frames", JsonValue::number(config.acq_stage2_window_frames));
  out.set("acq_threshold", JsonValue::number(config.acq_threshold));
  return out;
}

txrx::Gen1Config gen1_config_from_json(const JsonValue& v) {
  txrx::Gen1Config config;
  for (const auto& [key, val] : v.members()) {
    if (key == "analog_fs") config.analog_fs = val.as_double();
    else if (key == "adc_rate") config.adc_rate = val.as_double();
    else if (key == "frame_samples_adc") config.frame_samples_adc = as_size(val);
    else if (key == "pulses_per_bit") config.pulses_per_bit = val.as_int();
    else if (key == "pulse_sigma_s") config.pulse_sigma_s = val.as_double();
    else if (key == "adc_bits") config.adc_bits = val.as_int();
    else if (key == "adc_lanes") config.adc_lanes = val.as_int();
    else if (key == "comparator_offset_sigma") config.comparator_offset_sigma = val.as_double();
    else if (key == "interleave") config.interleave = interleave_from_json(val);
    else if (key == "aperture_jitter_rms_s") config.aperture_jitter_rms_s = val.as_double();
    else if (key == "spread_msequence_degree") config.spread_msequence_degree = val.as_int();
    else if (key == "preamble_pn_degree") config.preamble_pn_degree = val.as_int();
    else if (key == "preamble_repetitions") config.preamble_repetitions = val.as_int();
    else if (key == "packet") config.packet = packet_config_from_json(val);
    else if (key == "acq_parallelism_stage1") config.acq_parallelism_stage1 = as_size(val);
    else if (key == "acq_parallelism_stage2") config.acq_parallelism_stage2 = as_size(val);
    else if (key == "acq_integration_frames") config.acq_integration_frames = val.as_int();
    else if (key == "acq_stage2_window_frames") config.acq_stage2_window_frames = val.as_int();
    else if (key == "acq_threshold") config.acq_threshold = val.as_double();
    else unknown_key("gen1 config", key);
  }
  return config;
}

// ------------------------------------------------------------- Gen2Config ----

JsonValue to_json(const txrx::Gen2Config& config) {
  JsonValue out = JsonValue::object();
  out.set("analog_fs", JsonValue::number(config.analog_fs));
  out.set("adc_rate", JsonValue::number(config.adc_rate));
  out.set("prf_hz", JsonValue::number(config.prf_hz));
  out.set("channel_index", JsonValue::number(config.channel_index));
  out.set("pulse", to_json(config.pulse));
  out.set("modulation", JsonValue::string(modulation_name(config.modulation)));
  out.set("front_end", to_json(config.front_end));
  out.set("sar", to_json(config.sar));
  out.set("aperture_jitter_rms_s", JsonValue::number(config.aperture_jitter_rms_s));
  out.set("packet", to_json(config.packet));
  out.set("chanest", to_json(config.chanest));
  JsonValue rake = JsonValue::object();
  rake.set("policy", JsonValue::string(finger_policy_name(config.rake.policy)));
  rake.set("num_fingers", JsonValue::number(config.rake.num_fingers));
  out.set("rake", std::move(rake));
  JsonValue mlse = JsonValue::object();
  mlse.set("memory", JsonValue::number(config.mlse.memory));
  out.set("mlse", std::move(mlse));
  out.set("use_rake", JsonValue::boolean(config.use_rake));
  out.set("use_mlse", JsonValue::boolean(config.use_mlse));
  return out;
}

txrx::Gen2Config gen2_config_from_json(const JsonValue& v) {
  txrx::Gen2Config config;
  for (const auto& [key, val] : v.members()) {
    if (key == "analog_fs") config.analog_fs = val.as_double();
    else if (key == "adc_rate") config.adc_rate = val.as_double();
    else if (key == "prf_hz") config.prf_hz = val.as_double();
    else if (key == "channel_index") config.channel_index = val.as_int();
    else if (key == "pulse") config.pulse = pulse_spec_from_json(val);
    else if (key == "modulation") config.modulation = modulation_from_name(val.as_string());
    else if (key == "front_end") config.front_end = front_end_from_json(val);
    else if (key == "sar") config.sar = sar_from_json(val);
    else if (key == "aperture_jitter_rms_s") config.aperture_jitter_rms_s = val.as_double();
    else if (key == "packet") config.packet = packet_config_from_json(val);
    else if (key == "chanest") config.chanest = chanest_from_json(val);
    else if (key == "rake") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "policy") config.rake.policy = finger_policy_from_name(v2.as_string());
        else if (k2 == "num_fingers") config.rake.num_fingers = as_size(v2);
        else unknown_key("rake", k2);
      }
    } else if (key == "mlse") {
      for (const auto& [k2, v2] : val.members()) {
        if (k2 == "memory") config.mlse.memory = v2.as_int();
        else unknown_key("mlse", k2);
      }
    } else if (key == "use_rake") {
      config.use_rake = val.as_bool();
    } else if (key == "use_mlse") {
      config.use_mlse = val.as_bool();
    } else {
      unknown_key("gen2 config", key);
    }
  }
  return config;
}

// --------------------------------------------------------------- LinkSpec ----

JsonValue to_json(const txrx::LinkSpec& spec) {
  JsonValue out = JsonValue::object();
  out.set("generation", JsonValue::string(generation_json_name(spec.generation())));
  out.set("config", spec.generation() == txrx::Generation::kGen1 ? to_json(spec.gen1())
                                                                 : to_json(spec.gen2()));
  out.set("options", to_json(spec.options));
  return out;
}

txrx::LinkSpec link_spec_from_json(const JsonValue& v) {
  const txrx::Generation gen = generation_from_name(v.at("generation").as_string());
  txrx::LinkSpec spec;
  if (gen == txrx::Generation::kGen1) {
    spec.config = txrx::Gen1Config{};
  }
  spec.options = txrx::default_options(gen);
  for (const auto& [key, val] : v.members()) {
    if (key == "generation") {
      continue;  // handled above
    } else if (key == "config") {
      if (gen == txrx::Generation::kGen1) spec.config = gen1_config_from_json(val);
      else spec.config = gen2_config_from_json(val);
    } else if (key == "options") {
      spec.options = trial_options_from_json(val, txrx::default_options(gen));
    } else {
      unknown_key("link", key);
    }
  }
  // Strict like the unknown-key checks: a typo'd metric name must fail at
  // load time, not silently record empty columns. (emits_metric also
  // rejects a trial kind the generation does not support.)
  for (const std::string& name : spec.options.record_metrics) {
    if (!txrx::emits_metric(gen, spec.options.kind, name)) {
      throw InvalidArgument("spec: options: unknown metric '" + name +
                            "' in record_metrics");
    }
  }
  return spec;
}

// ---------------------------------------------------------------- BerStop ----

JsonValue to_json(const sim::BerStop& stop) {
  JsonValue out = JsonValue::object();
  out.set("min_errors", JsonValue::number(stop.min_errors));
  out.set("max_bits", JsonValue::number(stop.max_bits));
  out.set("max_trials", JsonValue::number(stop.max_trials));
  if (!stop.metric.empty()) out.set("metric", JsonValue::string(stop.metric));
  if (stop.target_rel_ci_width > 0.0) {
    out.set("target_rel_ci_width", JsonValue::number(stop.target_rel_ci_width));
  }
  return out;
}

sim::BerStop ber_stop_from_json(const JsonValue& v) {
  sim::BerStop stop;
  for (const auto& [key, val] : v.members()) {
    if (key == "min_errors") stop.min_errors = as_size(val);
    else if (key == "max_bits") stop.max_bits = as_size(val);
    else if (key == "max_trials") stop.max_trials = as_size(val);
    else if (key == "metric") stop.metric = val.as_string();
    else if (key == "target_rel_ci_width") stop.target_rel_ci_width = val.as_double();
    else unknown_key("stop", key);
  }
  sim::validate_budgets(stop);
  return stop;
}

// -------------------------------------------------------------- PointSpec ----

JsonValue to_json(const engine::PointSpec& point) {
  JsonValue out = JsonValue::object();
  out.set("label", JsonValue::string(point.label));
  JsonValue tags = JsonValue::array();
  for (const auto& [key, value] : point.tags) {
    JsonValue pair = JsonValue::array();
    pair.push_back(JsonValue::string(key));
    pair.push_back(JsonValue::string(value));
    tags.push_back(std::move(pair));
  }
  out.set("tags", std::move(tags));
  out.set("link", to_json(point.link));
  return out;
}

engine::PointSpec point_spec_from_json(const JsonValue& v) {
  engine::PointSpec point;
  bool have_link = false;
  for (const auto& [key, val] : v.members()) {
    if (key == "label") {
      point.label = val.as_string();
    } else if (key == "tags") {
      for (const auto& pair : val.items()) {
        detail::require(pair.items().size() == 2, "spec: a tag must be a [key, value] pair");
        point.tags.emplace_back(pair.items()[0].as_string(), pair.items()[1].as_string());
      }
    } else if (key == "link") {
      point.link = link_spec_from_json(val);
      have_link = true;
    } else {
      unknown_key("point", key);
    }
  }
  detail::require(have_link, "spec: point is missing its 'link'");
  return point;
}

// ------------------------------------------------------------ ScenarioSpec ----

JsonValue to_json(const engine::ScenarioSpec& scenario) {
  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::string(scenario.name));
  out.set("description", JsonValue::string(scenario.description));
  JsonValue points = JsonValue::array();
  for (const auto& point : scenario.points) {
    points.push_back(to_json(point));
  }
  out.set("points", std::move(points));
  return out;
}

engine::ScenarioSpec scenario_from_json(const JsonValue& v) {
  engine::ScenarioSpec scenario;
  for (const auto& [key, val] : v.members()) {
    if (key == "name") {
      scenario.name = val.as_string();
    } else if (key == "description") {
      scenario.description = val.as_string();
    } else if (key == "points") {
      for (const auto& point : val.items()) {
        scenario.points.push_back(point_spec_from_json(point));
      }
    } else {
      unknown_key("scenario", key);
    }
  }
  detail::require(!scenario.name.empty(), "spec: scenario needs a non-empty 'name'");
  return scenario;
}

// ------------------------------------------------------------------ files ----

std::string scenario_to_json_text(const engine::ScenarioSpec& scenario) {
  return dump_json_pretty(to_json(scenario));
}

engine::ScenarioSpec scenario_from_json_text(const std::string& text) {
  return scenario_from_json(parse_json(text));
}

void save_scenario_file(const engine::ScenarioSpec& scenario, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  detail::require(out.good(), "spec: cannot open '" + path + "' for writing");
  out << scenario_to_json_text(scenario);
  detail::require(out.good(), "spec: write to '" + path + "' failed");
}

engine::ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  detail::require(in.good(), "spec: cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return scenario_from_json_text(buffer.str());
}

}  // namespace uwb::io
