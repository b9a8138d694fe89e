#include "txrx/link.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "channel/interferer.h"
#include "common/error.h"
#include "dsp/fast_convolve.h"
#include "dsp/fir_filter.h"
#include "fec/viterbi_decoder.h"
#include "obs/profile.h"

namespace uwb::txrx {

std::string to_string(Generation gen) {
  return gen == Generation::kGen1 ? "gen1" : "gen2";
}

TrialOptions default_options(Generation gen) {
  TrialOptions options;
  if (gen == Generation::kGen1) {
    options.payload_bits = 32;
    options.genie_timing = true;  // BER runs use genie; acquisition runs don't
  }
  return options;
}

namespace {

/// Loud capability check shared by make_link and the gen-1 run paths: a
/// scenario asking gen-1 for gen-2-only machinery is a bug, not a no-op.
void require_supported(const LinkCaps& caps, const TrialOptions& options) {
  if (!caps.supports_interferer) {
    detail::require(!options.interferer, to_string(caps.generation) +
                                             " link does not support an interferer");
  }
  if (!caps.supports_auto_notch) {
    detail::require(!options.auto_notch,
                    to_string(caps.generation) + " link does not support auto_notch");
  }
  if (!caps.supports_fec) {
    detail::require(!options.fec.has_value(),
                    to_string(caps.generation) + " link does not support an outer FEC");
  }
  if (!caps.supports_acquisition_trials) {
    detail::require(options.kind != TrialKind::kAcquisition,
                    to_string(caps.generation) +
                        " link does not support acquisition trials");
  }
  if (options.channel_source.is_ensemble()) {
    detail::require(options.channel_source.ensemble_count >= 1,
                    "ensemble channel source needs ensemble_count >= 1");
  }
  if (options.sampling.active()) {
    stats::validate(options.sampling);
    detail::require(options.kind == TrialKind::kPacket,
                    "sampling policy applies to packet trials only");
    detail::require(!options.fec.has_value(),
                    "sampling policy is incompatible with an outer FEC "
                    "(the target-bit estimator needs uncoded payload bits)");
  }
  // A spec can only ask for metrics this trial kind actually emits --
  // recording a never-emitted metric would silently produce empty columns.
  for (const std::string& name : options.record_metrics) {
    detail::require(emits_metric(caps.generation, options.kind, name),
                    "unknown metric '" + name + "' in record_metrics: a " +
                        to_string(caps.generation) +
                        (options.kind == TrialKind::kAcquisition ? " acquisition"
                                                                 : " packet") +
                        " trial does not emit it");
  }
}

/// The realization an ensemble-mode multipath trial must use. Loud when the
/// harness forgot to resolve one: drawing fresh would silently run a
/// different experiment than the spec describes.
const channel::Cir* ensemble_channel_or_throw(const TrialOptions& options,
                                              const TrialContext& context) {
  if (context.channel != nullptr) {
    // The inverse mismatch is equally silent-experiment-shaped: a resolved
    // realization alongside fresh-mode options means the caller forgot one
    // side or the other.
    detail::require(options.channel_source.is_ensemble(),
                    "TrialContext carries a channel realization but "
                    "options.channel_source is fresh-mode");
    return context.channel;
  }
  detail::require(!options.channel_source.is_ensemble() || options.cm < 1,
                  "ensemble channel source needs a resolved realization in TrialContext "
                  "(run through engine::SweepEngine, or resolve one via "
                  "engine::ChannelCache and pass it explicitly)");
  return nullptr;
}

/// The per-trial bias an importance-sampled trial must use. Loud when the
/// harness forgot to resolve one: running unbiased trials while reporting
/// importance weights would silently corrupt the estimate (same shape as
/// ensemble_channel_or_throw above).
double sampling_scale_or_throw(const TrialOptions& options, const TrialContext& context) {
  (void)options;
  detail::require(context.sampling_resolved,
                  "options.sampling is active but TrialContext carries no resolved bias "
                  "(run through engine::SweepEngine, or set noise_scale / sampling_trial "
                  "/ sampling_resolved on the context explicitly)");
  detail::require(context.noise_scale >= 1.0, "TrialContext: noise_scale must be >= 1");
  return context.noise_scale;
}

double real_dot(double a, double b) { return a * b; }
double real_dot(const cplx& a, const cplx& b) {
  return a.real() * b.real() + a.imag() * b.imag();  // Re(a * conj(b))
}

/// The one-dimensional subspace the noise tilt rides along: the target
/// bit's received-signal direction (unit energy) and where it lands in the
/// rx waveform. usable is false on a zero-energy span (e.g. the bit's whole
/// contribution fell off the end of the wave): the trial then runs at the
/// nominal distribution with weight exactly 1.
template <typename T>
struct TiltDirection {
  std::vector<T> unit;
  std::size_t offset = 0;
  bool usable = false;
};

template <typename T>
TiltDirection<T> make_tilt_direction(std::vector<T> shape, std::size_t offset,
                                     std::size_t wave_size) {
  TiltDirection<T> dir;
  if (offset >= wave_size) return dir;
  if (shape.size() > wave_size - offset) shape.resize(wave_size - offset);
  double energy = 0.0;
  for (const T& s : shape) energy += real_dot(s, s);
  if (!(energy > 0.0)) return dir;
  const double inv = 1.0 / std::sqrt(energy);
  for (T& s : shape) s *= inv;
  dir.unit = std::move(shape);
  dir.offset = offset;
  dir.usable = true;
  return dir;
}

/// Adds the extra directional noise on top of the nominal AWGN draw and
/// returns the trial's log-likelihood ratio. \p clean is the pre-AWGN
/// snapshot of the direction's span, so wave - clean along the direction is
/// exactly the noise the weight must account for; \p get(n) reads and
/// \p add(n, v) accumulates into received sample n. The weight is the
/// balance heuristic over the policy's whole ladder (see
/// stats::mixture_log_weight): every rung -- including the untilted 1.0
/// rung -- reports the same weight function of z, which keeps weights
/// bounded by the rung count and keeps error mechanisms outside the tilt
/// direction measurable. Always consumes one Gaussian draw so the trial's
/// draw count does not depend on the scale or on channel luck.
template <typename T, typename Get, typename Add>
double apply_noise_tilt(Get&& get, Add&& add, const std::vector<T>& clean,
                        const TiltDirection<T>& dir, double sigma2,
                        const stats::SamplingPolicy& policy, double scale, Rng& rng) {
  if (!dir.usable) {
    rng.gaussian(0.0, 0.0);
    return 0.0;
  }
  double z = 0.0;
  for (std::size_t i = 0; i < dir.unit.size(); ++i) {
    z += real_dot(get(dir.offset + i) - clean[i], dir.unit[i]);
  }
  const double extra = rng.gaussian(0.0, stats::tilt_extra_stddev(sigma2, scale));
  if (extra != 0.0) {
    for (std::size_t i = 0; i < dir.unit.size(); ++i) {
      add(dir.offset + i, extra * dir.unit[i]);
    }
  }
  return stats::mixture_log_weight(z + extra, sigma2, stats::sampling_ladder(policy));
}

}  // namespace

channel::SvParams ensemble_sv_params(int cm, Generation gen) {
  channel::SvParams params = channel::cm_by_index(cm);
  params.complex_phases = gen == Generation::kGen2;
  return params;
}

// ------------------------------------------------------------- LinkSpec ----

LinkSpec LinkSpec::for_gen1(Gen1Config config) {
  return for_gen1(std::move(config), default_options(Generation::kGen1));
}

LinkSpec LinkSpec::for_gen1(Gen1Config config, TrialOptions options) {
  LinkSpec spec;
  spec.config = std::move(config);
  spec.options = std::move(options);
  return spec;
}

LinkSpec LinkSpec::for_gen2(Gen2Config config) {
  return for_gen2(std::move(config), default_options(Generation::kGen2));
}

LinkSpec LinkSpec::for_gen2(Gen2Config config, TrialOptions options) {
  LinkSpec spec;
  spec.config = std::move(config);
  spec.options = std::move(options);
  return spec;
}

LinkCaps generation_caps(Generation gen) {
  LinkCaps caps;
  caps.generation = gen;
  if (gen == Generation::kGen1) {
    caps.complex_baseband = false;
    caps.supports_interferer = false;
    caps.supports_auto_notch = false;
    caps.supports_fec = false;
    caps.supports_acquisition_trials = true;
  } else {
    caps.complex_baseband = true;
    caps.supports_interferer = true;
    caps.supports_auto_notch = true;
    caps.supports_fec = true;
    caps.supports_acquisition_trials = false;
  }
  // Derived, not hand-listed: the advertised vocabulary is the union of
  // what the supported trial kinds emit, so it cannot drift from
  // trial_metric_names.
  caps.metric_names = trial_metric_names(gen, TrialKind::kPacket);
  if (caps.supports_acquisition_trials) {
    for (std::string& name : trial_metric_names(gen, TrialKind::kAcquisition)) {
      if (!emits_metric(gen, TrialKind::kPacket, name)) {
        caps.metric_names.push_back(std::move(name));
      }
    }
  }
  return caps;
}

std::vector<std::string> trial_metric_names(Generation gen, TrialKind kind) {
  if (kind == TrialKind::kAcquisition) {
    detail::require(gen == Generation::kGen1,
                    to_string(gen) + " link does not support acquisition trials");
    return {metric_names::kAcquired, metric_names::kTimingCorrect,
            metric_names::kSyncTime};
  }
  if (gen == Generation::kGen1) return {metric_names::kAcquired, metric_names::kIsLlr};
  return {metric_names::kAcquired,          metric_names::kRakeEnergyCapture,
          metric_names::kSnrEstimate,       metric_names::kInterfererDetected,
          metric_names::kInterfererPom,     metric_names::kInterfererFreqErr,
          metric_names::kIsLlr};
}

bool emits_metric(Generation gen, TrialKind kind, const std::string& name) {
  for (const std::string& have : trial_metric_names(gen, kind)) {
    if (have == name) return true;
  }
  return false;
}

void validate_spec(const LinkSpec& spec) {
  require_supported(generation_caps(spec.generation()), spec.options);
}

std::unique_ptr<Link> make_link(const LinkSpec& spec, uint64_t seed) {
  validate_spec(spec);  // fail before paying for transmitter/receiver setup
  if (spec.generation() == Generation::kGen1) {
    return std::make_unique<Gen1Link>(spec.gen1(), seed);
  }
  return std::make_unique<Gen2Link>(spec.gen2(), seed);
}

// ---------------------------------------------------------------- Gen-2 ----

Gen2Link::Gen2Link(const Gen2Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {
  caps_ = generation_caps(Generation::kGen2);
  caps_.bit_rate_hz = config_.bit_rate_hz();
}

TrialResult Gen2Link::run_packet(const TrialOptions& options, Rng& rng,
                                 const TrialContext& context) {
  require_supported(caps_, options);  // gen-2 rejects acquisition trials here
  const Gen2TrialResult trial = run_packet_full(options, rng, context);
  TrialResult out;
  out.bits = trial.bits;
  out.errors = trial.errors;
  out.set_metric(metric_names::kAcquired, trial.rx.acquired ? 1.0 : 0.0);
  out.set_metric(metric_names::kRakeEnergyCapture, trial.rx.rake_energy_capture);
  out.set_metric(metric_names::kSnrEstimate, trial.rx.snr_estimate_db);
  if (options.run_spectral_monitor) {
    out.set_metric(metric_names::kInterfererDetected,
                   trial.rx.interferer.detected ? 1.0 : 0.0);
    out.set_metric(metric_names::kInterfererPom,
                   trial.rx.interferer.peak_over_median_db);
    // A frequency error only means something when there was a tone to find
    // and the monitor claimed to find it (mean over the detected subset,
    // same convention as sync_time_s).
    if (options.interferer && trial.rx.interferer.detected) {
      out.set_metric(metric_names::kInterfererFreqErr,
                     std::abs(trial.rx.interferer.frequency_hz -
                              options.interferer_freq_hz));
    }
  }
  if (trial.weighted) out.set_metric(metric_names::kIsLlr, trial.is_llr);
  return out;
}

void gen2_composite_kernel(const RealVec& prototype, const channel::Cir& cir, double fs,
                           dsp::IqArena& g) {
  const CplxVec h = cir.sampled(fs);
  g.assign_zero(h.empty() ? 0 : prototype.size() + h.size() - 1);
  // Prototype-major, the accumulation order of the direct complex
  // convolution (a real prototype sample times a complex tap is one real
  // product per rail).
  for (std::size_t i = 0; i < prototype.size() && !h.empty(); ++i) {
    const double p = prototype[i];
    double* gi = g.i.data() + i;
    double* gq = g.q.data() + i;
    for (std::size_t k = 0; k < h.size(); ++k) {
      gi[k] += p * h[k].real();
      gq[k] += p * h[k].imag();
    }
  }
}

void gen2_synthesize_capture(const Gen2Train& train, std::size_t delay, std::size_t proto_len,
                             const dsp::IqArena& g, std::size_t pad, dsp::IqArena& rx) {
  const std::size_t g_len = g.size();
  rx.assign_zero(delay + train.length - proto_len + g_len + pad);
  for (std::size_t m = 0; m < train.amplitudes.size(); ++m) {
    const double a = train.amplitudes[m];
    double* yi = rx.i.data() + delay + train.offsets[m];
    double* yq = rx.q.data() + delay + train.offsets[m];
    for (std::size_t k = 0; k < g_len; ++k) {
      yi[k] += a * g.i[k];
      yq[k] += a * g.q[k];
    }
  }
}

namespace {

/// A gen-2 trial's received capture (channel, interference, noise; the
/// receiver then conditions it in place). Per thread, not per link: each
/// trial rewrites it completely, so sharing it across the links a worker
/// builds point after point cannot couple results, and the buffer is
/// allocated once per worker instead of once per link.
dsp::IqArena& gen2_capture_arena() {
  thread_local dsp::IqArena arena;
  return arena;
}

}  // namespace

Gen2TrialResult Gen2Link::run_packet_full(const TrialOptions& options, Rng& rng,
                                          const TrialContext& context) {
  Gen2TrialResult trial;
  dsp::IqArena& capture = gen2_capture_arena();

  // Transmit. With an outer code the on-air payload is the codeword.
  const BitVec info = rng.bits(options.payload_bits);
  BitVec payload = info;
  if (options.fec.has_value()) {
    detail::require(config_.modulation == phy::Modulation::kBpsk,
                    "Gen2Link: coded mode requires BPSK");
    payload = fec::ConvEncoder(*options.fec).encode(info);
  }
  obs::StageTimer tx_timer(obs::Stage::kTxModulate);
  const Gen2Train train = tx_.transmit_train(payload);
  const TxFrame& frame = train.frame;
  tx_timer.add_samples(train.length);
  tx_timer.finish();

  // Random start delay (what acquisition must find).
  std::size_t delay = 0;
  if (options.start_delay_max_samples > 0) {
    delay = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_samples)));
  }

  // Channel: the context's resolved ensemble realization when one was
  // provided, a fresh per-trial draw otherwise, the identity on AWGN. The
  // received waveform is synthesized from the slots straight into the
  // split I/Q arena, with a tail pad so late fingers stay in range.
  if (options.cm >= 1) {
    if (const channel::Cir* fixed = ensemble_channel_or_throw(options, context)) {
      trial.true_channel = *fixed;
    } else {
      const channel::SalehValenzuela sv(channel::cm_by_index(options.cm));
      trial.true_channel = sv.realize(rng);
    }
  } else {
    trial.true_channel = channel::identity_cir();
  }
  {
    const obs::StageTimer ch_timer(obs::Stage::kChannelConvolve, train.length);
    if (g_.size() == 0 || trial.true_channel.taps() != g_key_taps_) {
      gen2_composite_kernel(tx_.prototype().samples(), trial.true_channel, config_.analog_fs,
                            g_);
      g_key_taps_ = trial.true_channel.taps();
    }
    gen2_synthesize_capture(train, delay, tx_.prototype().size(), g_,
                            static_cast<std::size_t>(64e-9 * config_.analog_fs), capture);
  }
  const std::size_t rx_len = capture.size();
  double* rx_i = capture.i.data();
  double* rx_q = capture.q.data();

  // Importance sampling: isolate the target payload bit's received-signal
  // direction (the prototype pulse through the same channel realization --
  // the composite kernel -- landed where the bit's symbol starts) before any
  // noise is drawn. The target bit is stratified by the global trial
  // index, so the choice is independent of worker count and shard layout.
  const bool tilt_active = options.sampling.active();
  std::size_t target_bit = 0;
  TiltDirection<cplx> tilt;
  if (tilt_active) {
    detail::require(config_.modulation == phy::Modulation::kBpsk,
                    "Gen2Link: sampling policy requires BPSK payload modulation");
    detail::require(!options.fec.has_value(),
                    "Gen2Link: sampling policy is incompatible with an outer FEC");
    (void)sampling_scale_or_throw(options, context);
    target_bit = context.sampling_trial % frame.payload.size();
    CplxVec shape;
    g_.store(shape);
    const std::size_t bit_offset =
        delay + (frame.overhead_symbols + target_bit) * frame.samples_per_bit;
    tilt = make_tilt_direction<cplx>(std::move(shape), bit_offset, rx_len);
  }

  // Interference.
  if (options.interferer) {
    double acc = 0.0;
    for (std::size_t k = 0; k < rx_len; ++k) acc += rx_i[k] * rx_i[k] + rx_q[k] * rx_q[k];
    const double signal_power = rx_len > 0 ? acc / static_cast<double>(rx_len) : 0.0;
    channel::add_cw_interferer(rx_i, rx_q, rx_len, config_.analog_fs,
                               options.interferer_freq_hz, signal_power,
                               options.interferer_sir_db, rng);
  }

  // AWGN at the requested Eb/N0, tilted along the target bit's direction
  // when a sampling policy is active (variance n0/2 per rail -> the tilt's
  // sigma2; z in the weight is the realized noise along the direction).
  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, options.ebn0_db);
  double log_weight = 0.0;
  {
    CplxVec clean;
    if (tilt_active && tilt.usable) {
      clean.resize(tilt.unit.size());
      for (std::size_t k = 0; k < clean.size(); ++k) {
        clean[k] = {rx_i[tilt.offset + k], rx_q[tilt.offset + k]};
      }
    }
    channel::add_awgn(rx_i, rx_q, rx_len, n0, rng);
    if (tilt_active) {
      log_weight = apply_noise_tilt(
          [&](std::size_t n) { return cplx(rx_i[n], rx_q[n]); },
          [&](std::size_t n, const cplx& v) {
            rx_i[n] += v.real();
            rx_q[n] += v.imag();
          },
          clean, tilt, 0.5 * n0, options.sampling, context.noise_scale, rng);
    }
  }

  // Receive. Coded trials bypass the MLSE hard path so the decoder gets
  // the RAKE's soft stream.
  Gen2RxOptions rx_opts;
  rx_opts.genie_timing = options.genie_timing;
  rx_opts.genie_offset = 0;  // estimator searches its window regardless
  rx_opts.run_spectral_monitor = options.run_spectral_monitor;
  rx_opts.auto_notch = options.auto_notch;
  rx_opts.noise_variance = n0;
  rx_opts.bypass_mlse = options.fec.has_value();
  trial.rx = rx_.receive({rx_i, rx_len}, {rx_q, rx_len}, tx_, frame, rx_opts, rng);

  trial.bits = trial.rx.bits_compared;
  trial.errors = trial.rx.bit_errors;

  if (options.fec.has_value() && trial.rx.acquired) {
    // Soft-decision Viterbi decoding of the codeword (payload section of
    // the soft stream; the CRC-32 tail bits are not part of the codeword).
    const std::size_t codeword_bits = payload.size();
    if (trial.rx.payload_soft.size() >= codeword_bits) {
      std::vector<double> llr(trial.rx.payload_soft.begin(),
                              trial.rx.payload_soft.begin() +
                                  static_cast<std::ptrdiff_t>(codeword_bits));
      const fec::ViterbiDecoder decoder(*options.fec);
      const BitVec decoded = decoder.decode_soft(llr);
      std::size_t errors = 0;
      const std::size_t n = std::min(decoded.size(), info.size());
      for (std::size_t i = 0; i < n; ++i) {
        if ((decoded[i] != 0) != (info[i] != 0)) ++errors;
      }
      trial.bits = info.size();
      trial.errors = errors + (info.size() - n);
    }
  }

  if (!trial.rx.acquired) {
    // A lost packet counts every bit as errored (PER-style accounting).
    trial.bits = options.fec.has_value() ? info.size() : frame.body_bits;
    trial.errors = trial.bits;
  }

  if (tilt_active) {
    // Weighted accounting: the trial measures its one target bit (the
    // others saw a biased-but-unweighted draw only through the tilt's
    // leakage into their matched filters, which the 1-D construction keeps
    // exactly zero-mean). A lost packet errors the target bit too.
    trial.weighted = true;
    trial.is_llr = log_weight;
    std::size_t err = 1;
    if (trial.rx.acquired && target_bit < trial.rx.payload.size()) {
      const std::size_t body_start = frame.frame_bits.size() - frame.body_bits;
      const bool tx_bit = frame.frame_bits[body_start + target_bit] != 0;
      err = ((trial.rx.payload[target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    trial.bits = 1;
    trial.errors = err;
  }
  return trial;
}

// ---------------------------------------------------------------- Gen-1 ----

Gen1Link::Gen1Link(const Gen1Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {
  caps_ = generation_caps(Generation::kGen1);
  caps_.bit_rate_hz = config_.bit_rate_hz();
}

const RealVec& Gen1Link::composite_kernel(const channel::Cir& cir) {
  if (!g_kernel_.empty() && cir.taps() == g_key_taps_) return g_kernel_;
  const CplxVec hc = cir.sampled(config_.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  g_kernel_ = dsp::convolve(tx_.prototype().samples(), hr);
  g_key_taps_ = cir.taps();
  // The kernel itself stays double precision (computed once per
  // realization); the per-packet scatter reads the float mirror.
  g_kernel_f_.resize(g_kernel_.size());
  for (std::size_t i = 0; i < g_kernel_.size(); ++i) {
    g_kernel_f_[i] = static_cast<float>(g_kernel_[i]);
  }
  return g_kernel_;
}

const dsp::AlignedVec<float>& Gen1Link::prototype_f() {
  const RealVec& proto = tx_.prototype().samples();
  if (proto_f_.size() != proto.size()) {
    proto_f_.resize(proto.size());
    for (std::size_t i = 0; i < proto.size(); ++i) {
      proto_f_[i] = static_cast<float>(proto[i]);
    }
  }
  return proto_f_;
}

std::span<const float> Gen1Link::scatter_and_noise(const std::vector<double>& amplitudes,
                                                   std::size_t delay_frames,
                                                   const dsp::AlignedVec<float>& kernel,
                                                   double n0, Rng& rng) {
  const std::size_t frame_samples = config_.frame_samples_analog();
  const std::size_t delay_samples = delay_frames * frame_samples;
  const std::size_t out_len =
      delay_samples + frame_samples * amplitudes.size() + kernel.size();
  // Tail pad so late fingers stay in range (the dense path's rx_wave.pad).
  const auto pad = static_cast<std::size_t>(64e-9 * config_.analog_fs);
  {
    const obs::StageTimer timer(obs::Stage::kChannelConvolve, out_len);
    rx_arena_.assign_zero(out_len + pad);
    const float* src = kernel.data();
    const std::size_t g_len = kernel.size();
    for (std::size_t s = 0; s < amplitudes.size(); ++s) {
      const auto a = static_cast<float>(amplitudes[s]);
      float* dst = rx_arena_.data() + delay_samples + s * frame_samples;
      for (std::size_t i = 0; i < g_len; ++i) dst[i] += a * src[i];
    }
  }
  channel::add_awgn(rx_arena_.data(), rx_arena_.size(), n0, rng);
  return {rx_arena_.data(), rx_arena_.size()};
}

namespace {

/// The multipath realization a gen-1 trial must use (cm >= 1 only): the
/// context's resolved ensemble realization, or a fresh per-trial draw.
channel::Cir resolve_gen1_cir(const TrialOptions& options, const TrialContext& context,
                              Rng& rng) {
  if (const channel::Cir* fixed = ensemble_channel_or_throw(options, context)) {
    return *fixed;
  }
  channel::SvParams params = channel::cm_by_index(options.cm);
  params.complex_phases = false;  // real +/- polarity taps for passband
  return channel::SalehValenzuela(params).realize(rng);
}

RealWaveform apply_gen1_channel(RealWaveform wave, const TrialOptions& options,
                                const TrialContext& context, channel::Cir* out_cir,
                                Rng& rng) {
  if (options.cm >= 1) {
    const channel::Cir cir = resolve_gen1_cir(options, context, rng);
    if (out_cir != nullptr) *out_cir = cir;
    obs::StageTimer ch_timer(obs::Stage::kChannelConvolve);
    RealWaveform out = cir.apply_real(wave);
    ch_timer.add_samples(out.size());
    ch_timer.finish();
    return out;
  }
  if (out_cir != nullptr) *out_cir = channel::identity_cir();
  return wave;
}

/// Sparse-train channel apply: y[n] = sum_k a_k * g[n - delay - k*frame].
/// Mathematically identical to convolving the dense train with the CIR
/// (convolution distributes over the slot sum); the output length matches
/// the dense path exactly: delay + frame*slots + |prototype| + |h| - 1
/// == delay + frame*slots + |g|.
RealWaveform apply_gen1_channel_sparse(const std::vector<double>& amplitudes,
                                       std::size_t frame_samples,
                                       std::size_t delay_samples, const RealVec& g,
                                       double fs) {
  const std::size_t out_len =
      delay_samples + frame_samples * amplitudes.size() + g.size();
  const obs::StageTimer timer(obs::Stage::kChannelConvolve, out_len);
  RealVec y(out_len, 0.0);
  const std::size_t g_len = g.size();
  const double* src = g.data();
  for (std::size_t s = 0; s < amplitudes.size(); ++s) {
    const double a = amplitudes[s];
    double* dst = y.data() + delay_samples + s * frame_samples;
    for (std::size_t i = 0; i < g_len; ++i) dst[i] += a * src[i];
  }
  return {std::move(y), fs};
}

}  // namespace

TrialResult Gen1Link::run_packet(const TrialOptions& options, Rng& rng,
                                 const TrialContext& context) {
  if (options.kind == TrialKind::kAcquisition) {
    // Acquisition trials through the generic interface: one attempt per
    // trial, a timing failure is the trial's one "error". Stop rules and
    // the BER column therefore read as attempt count / timing-failure
    // rate, and the named metrics carry the acquisition statistics.
    const AcqTrial trial = run_acquisition(options, rng, options.acq_tol_samples, context);
    TrialResult out;
    out.bits = 1;
    out.errors = trial.timing_correct ? 0 : 1;
    out.set_metric(metric_names::kAcquired, trial.acq.acquired ? 1.0 : 0.0);
    out.set_metric(metric_names::kTimingCorrect, trial.timing_correct ? 1.0 : 0.0);
    // Only detected trials have a meaningful lock time: the metric's mean
    // is the mean over the detected subset, not diluted by misses.
    if (trial.acq.acquired) out.set_metric(metric_names::kSyncTime, trial.acq.sync_time_s);
    return out;
  }
  const Gen1TrialResult trial = run_packet_full(options, rng, context);
  TrialResult out;
  out.bits = trial.bits;
  out.errors = trial.errors;
  out.set_metric(metric_names::kAcquired,
                 (options.genie_timing || trial.rx.acq.acquired) ? 1.0 : 0.0);
  if (trial.weighted) out.set_metric(metric_names::kIsLlr, trial.is_llr);
  return out;
}

Gen1TrialResult Gen1Link::run_packet_full(const TrialOptions& options, Rng& rng,
                                          const TrialContext& context) {
  require_supported(caps_, options);
  Gen1TrialResult trial;

  const BitVec payload = rng.bits(options.payload_bits);

  // With the fast-convolve policy on, the dense ~98%-zeros waveform is
  // never synthesized: the transmitter emits per-frame amplitudes and the
  // channel (identity for AWGN-only trials) lands as shift-adds of the
  // composite kernel straight into the single-precision sample arena,
  // where noise synthesis and the receiver also run. Importance-sampled
  // trials stay on the double-waveform path: the tilt machinery snapshots
  // and re-projects the waveform around the noise draw. The Rng draw order
  // (payload bits, delay, fresh-realization draws, then noise) is shared
  // by every path, so the pre-noise signal is the same experiment under
  // any policy; the float path's noise realization differs by design (it
  // runs the dedicated single-precision sampler, see channel/awgn.h).
  const bool tilt_active = options.sampling.active();
  const bool float_path = dsp::fast_convolve_enabled() && !tilt_active;
  const bool sparse_channel =
      !float_path && options.cm >= 1 && dsp::fast_convolve_enabled();

  TxFrame frame;
  RealWaveform wave;  // dense path only
  Gen1Train train;    // float / sparse path only
  {
    obs::StageTimer tx_timer(obs::Stage::kTxModulate);
    if (float_path || sparse_channel) {
      train = tx_.transmit_train(payload);
      frame = std::move(train.frame);
      tx_timer.add_samples(train.amplitudes.size());
    } else {
      auto wf = tx_.transmit(payload);
      wave = std::move(wf.first);
      frame = std::move(wf.second);
      tx_timer.add_samples(wave.size());
    }
  }

  std::size_t delay_frames = 0;
  if (options.start_delay_max_frames > 0) {
    delay_frames = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_frames)));
    if (!float_path && !sparse_channel) {
      wave.delay_samples(delay_frames * config_.frame_samples_analog());
    }
  }
  trial.true_offset_adc = delay_frames * config_.frame_samples_adc;

  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, options.ebn0_db);
  Gen1RxOptions rx_opts;
  rx_opts.genie_timing = options.genie_timing;
  rx_opts.genie_offset = trial.true_offset_adc;

  double log_weight = 0.0;
  std::size_t target_bit = 0;
  if (float_path) {
    const dsp::AlignedVec<float>* g = &prototype_f();
    if (options.cm >= 1) {
      const channel::Cir cir = resolve_gen1_cir(options, context, rng);
      composite_kernel(cir);  // refreshes the float mirror on a new realization
      g = &g_kernel_f_;
    }
    const std::span<const float> rx_span =
        scatter_and_noise(train.amplitudes, delay_frames, *g, n0, rng);
    trial.rx = rx_.receive(rx_span, config_.analog_fs, tx_, frame, rx_opts, rng);
  } else {
    channel::Cir cir = channel::identity_cir();
    RealWaveform rx_wave;
    if (sparse_channel) {
      cir = resolve_gen1_cir(options, context, rng);
      rx_wave = apply_gen1_channel_sparse(
          train.amplitudes, config_.frame_samples_analog(),
          delay_frames * config_.frame_samples_analog(), composite_kernel(cir),
          config_.analog_fs);
    } else {
      rx_wave = apply_gen1_channel(std::move(wave), options, context, &cir, rng);
    }
    rx_wave.pad(static_cast<std::size_t>(64e-9 * config_.analog_fs));

    // Importance sampling: the target data bit's received contribution is
    // its pulses_per_bit spread-scrambled pulses through the same channel
    // realization, landed after the preamble and the start delay.
    TiltDirection<double> tilt;
    if (tilt_active) {
      (void)sampling_scale_or_throw(options, context);
      target_bit = context.sampling_trial % frame.frame_bits.size();
      const RealWaveform& proto = tx_.prototype();
      const std::vector<double>& spread = tx_.spread_chips();
      const std::size_t frame_samples = config_.frame_samples_analog();
      const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
      std::vector<double> shape((ppb - 1) * frame_samples + proto.size(), 0.0);
      for (std::size_t k = 0; k < ppb; ++k) {
        const double chip = spread[k % spread.size()];
        for (std::size_t i = 0; i < proto.size(); ++i) {
          shape[k * frame_samples + i] += chip * proto[i];
        }
      }
      if (options.cm >= 1) {
        const RealWaveform filtered =
            cir.apply_real(RealWaveform(std::move(shape), config_.analog_fs));
        shape = filtered.samples();
      }
      const std::size_t bit_offset =
          (delay_frames + tx_.preamble_frames() + target_bit * ppb) * frame_samples;
      tilt = make_tilt_direction<double>(std::move(shape), bit_offset, rx_wave.size());
    }

    {
      std::vector<double> clean;
      if (tilt_active && tilt.usable) {
        const auto first = static_cast<std::ptrdiff_t>(tilt.offset);
        clean.assign(rx_wave.samples().begin() + first,
                     rx_wave.samples().begin() + first +
                         static_cast<std::ptrdiff_t>(tilt.unit.size()));
      }
      channel::add_awgn(rx_wave, n0, rng);
      if (tilt_active) {
        log_weight = apply_noise_tilt(
            [&](std::size_t n) { return rx_wave[n]; },
            [&](std::size_t n, double v) { rx_wave[n] += v; }, clean, tilt, 0.5 * n0,
            options.sampling, context.noise_scale, rng);
      }
    }

    trial.rx = rx_.receive(rx_wave, tx_, frame, rx_opts, rng);
  }
  trial.bits = trial.rx.bits_compared;
  trial.errors = trial.rx.bit_errors;
  if (!options.genie_timing && !trial.rx.acq.acquired) {
    trial.bits = frame.frame_bits.size();
    trial.errors = frame.frame_bits.size();
  }

  if (tilt_active) {
    trial.weighted = true;
    trial.is_llr = log_weight;
    std::size_t err = 1;  // lost packet: the target bit errored with the rest
    if ((options.genie_timing || trial.rx.acq.acquired) &&
        target_bit < trial.rx.data_bits.size()) {
      const bool tx_bit = frame.frame_bits[target_bit] != 0;
      err = ((trial.rx.data_bits[target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    trial.bits = 1;
    trial.errors = err;
  }
  return trial;
}

Gen1Link::AcqTrial Gen1Link::run_acquisition(const TrialOptions& options,
                                             std::size_t tol_samples) {
  return run_acquisition(options, rng_, tol_samples, TrialContext{});
}

Gen1Link::AcqTrial Gen1Link::run_acquisition(const TrialOptions& options, Rng& rng,
                                             std::size_t tol_samples,
                                             const TrialContext& context) {
  require_supported(caps_, options);
  AcqTrial out;

  const BitVec payload = rng.bits(options.payload_bits);
  // Same path split as run_packet_full (acquisition trials never tilt).
  const bool float_path = dsp::fast_convolve_enabled();

  TxFrame frame;
  RealWaveform wave;  // dense path only
  Gen1Train train;    // float path only
  {
    obs::StageTimer tx_timer(obs::Stage::kTxModulate);
    if (float_path) {
      train = tx_.transmit_train(payload);
      frame = std::move(train.frame);
      tx_timer.add_samples(train.amplitudes.size());
    } else {
      auto wf = tx_.transmit(payload);
      wave = std::move(wf.first);
      frame = std::move(wf.second);
      tx_timer.add_samples(wave.size());
    }
  }

  std::size_t delay_frames = 0;
  if (options.start_delay_max_frames > 0) {
    delay_frames = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_frames)));
    if (!float_path) wave.delay_samples(delay_frames * config_.frame_samples_analog());
  }
  const std::size_t true_offset = delay_frames * config_.frame_samples_adc;

  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, options.ebn0_db);
  if (float_path) {
    const dsp::AlignedVec<float>* g = &prototype_f();
    if (options.cm >= 1) {
      const channel::Cir cir = resolve_gen1_cir(options, context, rng);
      composite_kernel(cir);
      g = &g_kernel_f_;
    }
    const std::span<const float> rx_span =
        scatter_and_noise(train.amplitudes, delay_frames, *g, n0, rng);
    out.acq = rx_.acquire(rx_span, config_.analog_fs, tx_, rng);
  } else {
    RealWaveform rx_wave = apply_gen1_channel(std::move(wave), options, context, nullptr, rng);
    rx_wave.pad(static_cast<std::size_t>(64e-9 * config_.analog_fs));
    channel::add_awgn(rx_wave, n0, rng);
    out.acq = rx_.acquire(rx_wave, tx_, rng);
  }
  out.true_offset_adc = true_offset;

  // Compare timing modulo one PN period (the residual ambiguity the SFD
  // search resolves at frame level).
  const std::size_t period_samples =
      tx_.preamble_chips().size() * config_.frame_samples_adc;
  const auto diff = static_cast<std::ptrdiff_t>(out.acq.timing_offset % period_samples) -
                    static_cast<std::ptrdiff_t>(true_offset % period_samples);
  const std::size_t abs_diff =
      static_cast<std::size_t>(diff < 0 ? -diff : diff) % period_samples;
  const std::size_t wrapped = std::min(abs_diff, period_samples - abs_diff);
  out.timing_correct = out.acq.acquired && wrapped <= tol_samples;
  return out;
}

}  // namespace uwb::txrx
