#include "txrx/link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "channel/awgn.h"
#include "channel/interferer.h"
#include "common/error.h"
#include "dsp/correlator.h"
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

/// Loud capability check shared by make_link and the run paths: a
/// scenario asking gen-1 for gen-2-only machinery is a bug, not a no-op.
void require_supported(Generation gen, const TrialOptions& options) {
  if (gen == Generation::kGen1) {
    detail::require(!options.interferer, "gen1 link does not support an interferer");
    detail::require(!options.auto_notch, "gen1 link does not support auto_notch");
    detail::require(!options.fec.has_value(), "gen1 link does not support an outer FEC");
  } else {
    detail::require(options.kind != TrialKind::kAcquisition,
                    "gen2 link does not support acquisition trials");
  }
  if (options.payload_bits > TrialOptions::kMaxPayloadBits) {
    throw InvalidArgument("payload_bits " + std::to_string(options.payload_bits) +
                          " exceeds the maximum " +
                          std::to_string(TrialOptions::kMaxPayloadBits));
  }
  if (options.channel_source.is_ensemble()) {
    detail::require(options.channel_source.ensemble_count >= 1,
                    "ensemble channel source needs ensemble_count >= 1");
    detail::require(options.channel_source.ensemble_count <= ChannelSource::kMaxEnsembleCount,
                    "ensemble channel source: ensemble_count " +
                        std::to_string(options.channel_source.ensemble_count) +
                        " exceeds the maximum " +
                        std::to_string(ChannelSource::kMaxEnsembleCount));
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
    detail::require(emits_metric(gen, options.kind, name),
                    "unknown metric '" + name + "' in record_metrics: a " +
                        to_string(gen) +
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
  require_supported(spec.generation(), spec.options);
}

std::unique_ptr<Link> make_link(const LinkSpec& spec, uint64_t seed) {
  validate_spec(spec);  // fail before paying for transmitter/receiver setup
  if (spec.generation() == Generation::kGen1) {
    return std::make_unique<Gen1Link>(spec.gen1(), seed);
  }
  return std::make_unique<Gen2Link>(spec.gen2(), seed);
}

sim::TrialOutcome run_trial(Link& link, const TrialOptions& options, std::size_t index,
                            const channel::Cir* cir, Rng& rng) {
  TrialContext context;
  context.channel = cir;
  if (options.sampling.active()) {
    // Index-keyed bias resolution, like the ensemble realization: trial i's
    // scale and target-bit stratum depend only on i, so weighted sweeps
    // stay deterministic for any worker count.
    context.noise_scale = stats::trial_noise_scale(options.sampling, index);
    context.sampling_trial = index;
    context.sampling_resolved = true;
  }
  sim::TrialOutcome out = link.run_packet(options, rng, context);
  // The importance weight is estimator state, not an optional observable:
  // it stays on the outcome whatever the filter keeps.
  const std::vector<std::string>& wanted = options.record_metrics;
  if (!wanted.empty()) {
    std::vector<std::pair<std::string, double>> kept;
    kept.reserve(wanted.size());
    for (const std::string& name : wanted) {
      if (const std::optional<double> value = out.metric(name)) kept.emplace_back(name, *value);
    }
    out.metrics = std::move(kept);
  }
  return out;
}

// ---------------------------------------------------------------- Gen-2 ----

Gen2Link::Gen2Link(const Gen2Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {}

sim::TrialOutcome Gen2Link::run_packet(const TrialOptions& options, Rng& rng,
                                       const TrialContext& context) {
  require_supported(Generation::kGen2, options);  // gen-2 rejects acquisition trials here
  return run_packet_full(options, rng, context).outcome;
}

void gen2_composite_kernel(const RealVec& prototype, const channel::Cir& cir, double fs,
                           dsp::IqArena& g) {
  const CplxVec h = cir.sampled(fs);
  const std::size_t len = h.empty() ? 0 : prototype.size() + h.size() - 1;
  g.resize(len);
  if (len == 0) return;
  // g = sum_i prototype[i] * h[n - i], prototype-major: the accumulation
  // order of the direct complex convolution (a real prototype sample times
  // a complex tap is one real product per rail).
  dsp::IqArena rails;
  rails.load(h.data(), h.size());
  std::vector<std::size_t> shifts(prototype.size());
  std::iota(shifts.begin(), shifts.end(), std::size_t{0});
  dsp::shifted_sum(prototype.data(), shifts.data(), shifts.size(), rails.i.data(), h.size(), 0,
                   len, g.i.data());
  dsp::shifted_sum(prototype.data(), shifts.data(), shifts.size(), rails.q.data(), h.size(), 0,
                   len, g.q.data());
}

void gen2_synthesize_capture(const Gen2Train& train, std::size_t delay, std::size_t proto_len,
                             const dsp::IqArena& g, std::size_t pad, dsp::IqArena& rx) {
  const std::size_t len = train.length - proto_len + g.size() + pad;
  rx.resize(delay + len);
  std::fill(rx.i.data(), rx.i.data() + delay, 0.0);
  std::fill(rx.q.data(), rx.q.data() + delay, 0.0);
  const std::size_t slots = train.amplitudes.size();
  dsp::shifted_sum(train.amplitudes.data(), train.offsets.data(), slots, g.i.data(), g.size(), 0,
                   len, rx.i.data() + delay);
  dsp::shifted_sum(train.amplitudes.data(), train.offsets.data(), slots, g.q.data(), g.size(), 0,
                   len, rx.q.data() + delay);
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
  // split I/Q arena, with a tail pad so late fingers stay in range. The
  // channel stage times both the draw and the convolution.
  {
    const obs::StageTimer ch_timer(obs::Stage::kChannelConvolve, train.length);
    bool fresh = false;
    if (options.cm >= 1) {
      if (const channel::Cir* fixed = ensemble_channel_or_throw(options, context)) {
        trial.true_channel = *fixed;
      } else {
        const channel::SalehValenzuela sv(channel::cm_by_index(options.cm));
        trial.true_channel = sv.realize(rng);
        fresh = true;
      }
    } else {
      trial.true_channel = channel::identity_cir();
    }
    const bool hit = !fresh && g_key_taps_ && trial.true_channel.taps() == *g_key_taps_;
    if (!hit) {
      gen2_composite_kernel(tx_.prototype().samples(), trial.true_channel, config_.analog_fs,
                            g_);
      // A fresh draw is never seen again, so it leaves no key.
      if (fresh) {
        g_key_taps_.reset();
      } else {
        g_key_taps_ = trial.true_channel.taps();
      }
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

  sim::TrialOutcome& out = trial.outcome;
  out.bits = trial.rx.bits_compared;
  out.errors = trial.rx.bit_errors;

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
      out.bits = info.size();
      out.errors = errors + (info.size() - n);
    }
  }

  if (!trial.rx.acquired) {
    // A lost packet counts every bit as errored (PER-style accounting).
    out.bits = options.fec.has_value() ? info.size() : frame.body_bits;
    out.errors = out.bits;
  }

  if (tilt_active) {
    // Weighted accounting: the trial measures its one target bit (the
    // others saw a biased-but-unweighted draw only through the tilt's
    // leakage into their matched filters, which the 1-D construction keeps
    // exactly zero-mean). A lost packet errors the target bit too.
    std::size_t err = 1;
    if (trial.rx.acquired && target_bit < trial.rx.payload.size()) {
      const std::size_t body_start = frame.frame_bits.size() - frame.body_bits;
      const bool tx_bit = frame.frame_bits[body_start + target_bit] != 0;
      err = ((trial.rx.payload[target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    out.bits = 1;
    out.errors = err;
  }

  out.set_metric(metric_names::kAcquired, trial.rx.acquired ? 1.0 : 0.0);
  out.set_metric(metric_names::kRakeEnergyCapture, trial.rx.rake_energy_capture);
  out.set_metric(metric_names::kSnrEstimate, trial.rx.snr_estimate_db);
  if (options.run_spectral_monitor) {
    out.set_metric(metric_names::kInterfererDetected, trial.rx.interferer.detected ? 1.0 : 0.0);
    out.set_metric(metric_names::kInterfererPom, trial.rx.interferer.peak_over_median_db);
    // A frequency error only means something when there was a tone to find
    // and the monitor claimed to find it (mean over the detected subset,
    // same convention as sync_time_s).
    if (options.interferer && trial.rx.interferer.detected) {
      out.set_metric(metric_names::kInterfererFreqErr,
                     std::abs(trial.rx.interferer.frequency_hz - options.interferer_freq_hz));
    }
  }
  if (tilt_active) out.set_weight(log_weight);
  return trial;
}

// ---------------------------------------------------------------- Gen-1 ----

Gen1Link::Gen1Link(const Gen1Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {}

namespace {

/// The float mirror of \p g the per-packet scatter reads.
void mirror_to_float(const RealVec& g, dsp::AlignedVec<float>& out) {
  out.resize(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = static_cast<float>(g[i]);
}

}  // namespace

Gen1Link::Kernel& Gen1Link::composite_kernel(const channel::Cir& cir) {
  if (!channel_kernel_.g.empty() && cir.taps() == g_key_taps_) return channel_kernel_;
  const CplxVec hc = cir.sampled(config_.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  channel_kernel_.g = dsp::convolve(tx_.prototype().samples(), hr);
  g_key_taps_ = cir.taps();
  // The kernel itself stays double precision (computed once per
  // realization); the per-packet scatter reads the float mirror.
  mirror_to_float(channel_kernel_.g, channel_kernel_.g_f);
  channel_kernel_.filtered_energy = rx_.filtered_energy(channel_kernel_.g);
  channel_kernel_.images.clear();
  return channel_kernel_;
}

Gen1Link::Kernel& Gen1Link::prototype_kernel() {
  const RealVec& proto = tx_.prototype().samples();
  if (proto_kernel_.g != proto) {
    proto_kernel_.g = proto;
    mirror_to_float(proto, proto_kernel_.g_f);
    proto_kernel_.filtered_energy = rx_.filtered_energy(proto);
    proto_kernel_.images.clear();
  }
  return proto_kernel_;
}

const std::vector<std::optional<Gen1ConverterImage>>& Gen1Link::converter_images(
    Kernel& kernel, std::size_t delay, std::size_t frame, std::size_t pulses) {
  const std::optional<Gen1Receiver::LanePlan> plan = rx_.lane_plan(config_.analog_fs);
  detail::require(plan.has_value(), "Gen1Link: converter images need a lane plan");
  const std::size_t period = plan->stride * plan->num_lanes;
  kernel.images.resize(period);
  // Pulse phases repeat with a period dividing `period` pulses.
  for (std::size_t s = 0; s < std::min(pulses, period); ++s) {
    const std::size_t phase = (delay + s * frame) % period;
    if (!kernel.images[phase]) {
      kernel.images[phase] = rx_.converter_image(kernel.g_f, phase, config_.analog_fs);
    }
  }
  return kernel.images;
}

namespace {

/// A gen-1 trial's received capture (channel, noise; the receiver reads it
/// in place), on the dense path. Per thread, not per link, as on gen-2:
/// each trial rewrites all of it, so links sharing it on one thread cannot
/// couple results, and a worker maps it once per run instead of once per
/// link.
dsp::AlignedVec<float>& gen1_capture_arena() {
  thread_local dsp::AlignedVec<float> arena;
  return arena;
}

/// The converter path's samples: the decision blocks' converter samples,
/// and the white draws their noise is colored from. Per thread, as above.
struct Gen1ConverterArenas {
  dsp::AlignedVec<float> values;
  dsp::AlignedVec<float> white;
};

Gen1ConverterArenas& gen1_converter_arenas() {
  thread_local Gen1ConverterArenas arenas;
  return arenas;
}

void fill_whole(dsp::AlignedVec<float>& buf, float value) {
  const std::size_t size = buf.size();
  buf.resize(buf.capacity());
  std::fill(buf.begin(), buf.end(), value);
  buf.resize(size);
}

/// The dense capture before noise: rx[i] = sum_s a_s * g[i - delay - s *
/// frame] over [0, n), pulses summed in ascending s.
void land_train(std::span<const double> amplitudes, std::size_t delay, std::size_t frame,
                std::span<const float> g, float* rx, std::size_t n) {
  std::fill(rx, rx + n, 0.0f);
  for (std::size_t s = 0; s < amplitudes.size(); ++s) {
    const std::size_t p = delay + s * frame;
    if (p >= n) break;
    const std::size_t hi = std::min(n, p + g.size());
    const auto a = static_cast<float>(amplitudes[s]);
    for (std::size_t i = p; i < hi; ++i) rx[i] += a * g[i - p];
  }
}

/// Where converter images reach, in analog samples from the start p of the
/// pulse they image: every image sample's ADC index k has
/// lo <= k * stride - p < hi.
struct ImageReach {
  std::ptrdiff_t lo = 0;
  std::ptrdiff_t hi = 0;
};

ImageReach image_reach(const std::vector<std::optional<Gen1ConverterImage>>& images,
                       std::size_t stride) {
  const auto st = static_cast<std::ptrdiff_t>(stride);
  ImageReach reach{std::numeric_limits<std::ptrdiff_t>::max(),
                   std::numeric_limits<std::ptrdiff_t>::min()};
  for (std::size_t phase = 0; phase < images.size(); ++phase) {
    if (!images[phase] || images[phase]->values.empty()) continue;
    const std::ptrdiff_t first = images[phase]->first * st - static_cast<std::ptrdiff_t>(phase);
    reach.lo = std::min(reach.lo, first);
    reach.hi = std::max(reach.hi,
                        first + static_cast<std::ptrdiff_t>(images[phase]->values.size()) * st);
  }
  return reach.lo < reach.hi ? reach : ImageReach{};
}

/// The converter-path capture before noise: sample k of \p blocks (packed
/// in \p out) receives a_s times the image of pulse s's lane phase at
/// k - (p_s - phase) / stride - first, p_s = delay + s * frame, summed in
/// ascending s. \p images holds every phase the pulses land at.
void land_converter(std::span<const double> amplitudes, std::size_t delay, std::size_t frame,
                    std::size_t stride,
                    const std::vector<std::optional<Gen1ConverterImage>>& images,
                    std::span<const AdcWindow> blocks, float* out) {
  const ImageReach reach = image_reach(images, stride);
  const auto d = static_cast<std::ptrdiff_t>(delay);
  const auto f = static_cast<std::ptrdiff_t>(frame);
  const auto st = static_cast<std::ptrdiff_t>(stride);
  const std::size_t period = images.size();
  std::size_t offset = 0;
  for (const AdcWindow& block : blocks) {
    const std::size_t len = block.end - block.begin;
    float* o = out + offset;
    offset += len;
    std::fill(o, o + len, 0.0f);
    if (reach.lo == reach.hi) continue;
    // Pulse s can touch the block only if p_s + reach.hi > begin * stride
    // and p_s + reach.lo < end * stride.
    const std::ptrdiff_t t = static_cast<std::ptrdiff_t>(block.begin) * st - reach.hi - d;
    const std::ptrdiff_t u = static_cast<std::ptrdiff_t>(block.end) * st - reach.lo - d;
    const std::size_t s_lo = t < 0 ? 0 : static_cast<std::size_t>(t / f + 1);
    const std::size_t s_hi =
        u <= 0 ? 0 : std::min(amplitudes.size(), static_cast<std::size_t>((u + f - 1) / f));
    for (std::size_t s = s_lo; s < s_hi; ++s) {
      const std::size_t p = delay + s * frame;
      const Gen1ConverterImage& image = *images[p % period];
      const auto k_first =
          static_cast<std::ptrdiff_t>((p - p % period) / stride) + image.first;
      const auto img_len = static_cast<std::ptrdiff_t>(image.values.size());
      const std::ptrdiff_t lo = std::max(static_cast<std::ptrdiff_t>(block.begin), k_first);
      const std::ptrdiff_t hi = std::min(static_cast<std::ptrdiff_t>(block.end), k_first + img_len);
      const auto a = static_cast<float>(amplitudes[s]);
      for (std::ptrdiff_t k = lo; k < hi; ++k) {
        o[k - static_cast<std::ptrdiff_t>(block.begin)] += a * image.values[k - k_first];
      }
    }
  }
}

}  // namespace

void test_hooks::fill_gen1_thread_buffers(float value) {
  fill_whole(gen1_capture_arena(), value);
  Gen1ConverterArenas& converter = gen1_converter_arenas();
  fill_whole(converter.values, value);
  fill_whole(converter.white, value);
  Gen1Receiver::fill_thread_buffers(value);
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

}  // namespace

Gen1Link::Capture Gen1Link::synthesize_capture(const TrialOptions& options,
                                               const TrialContext& context, Rng& rng) {
  Capture cap;
  const BitVec payload = rng.bits(options.payload_bits);
  Gen1Train train;
  {
    obs::StageTimer tx_timer(obs::Stage::kTxModulate);
    train = tx_.transmit_train(payload);
    tx_timer.add_samples(train.amplitudes.size());
  }

  std::size_t delay_frames = 0;
  if (options.start_delay_max_frames > 0) {
    delay_frames = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_frames)));
  }
  cap.true_offset_adc = delay_frames * config_.frame_samples_adc;

  // The dense ~98%-zeros waveform is never synthesized: the channel
  // (identity for AWGN-only trials) lands as shift-adds of the composite
  // kernel -- or of its converter images -- straight into the arena the
  // noise synthesis and the receiver also run in.
  Kernel& kernel = options.cm >= 1 ? composite_kernel(resolve_gen1_cir(options, context, rng))
                                   : prototype_kernel();
  const double fs = config_.analog_fs;
  const std::size_t frame_samples = config_.frame_samples_analog();
  const std::size_t delay_samples = delay_frames * frame_samples;
  const std::size_t train_len = frame_samples * train.amplitudes.size() + kernel.g_f.size();
  // Tail pad so late fingers stay in range.
  const std::size_t pad = static_cast<std::size_t>(64e-9 * fs);
  const std::size_t rx_len = delay_samples + train_len + pad;
  const double n0 = channel::n0_for_ebn0(train.frame.energy_per_bit, options.ebn0_db);
  cap.length = rx_len;
  cap.frame = std::move(train.frame);
  double pulse_energy = 0.0;
  for (const double a : train.amplitudes) pulse_energy += a * a;
  // An acquisition trial searches for the timing, so it reads it all.
  cap.rx.genie_timing = options.genie_timing && options.kind != TrialKind::kAcquisition;
  cap.rx.genie_offset = cap.true_offset_adc;
  cap.rx.agc = Gen1AgcModel{pulse_energy, kernel.filtered_energy, n0};

  // Importance sampling: the target data bit's received contribution is its
  // pulses_per_bit spread-scrambled pulses through the channel,
  // sum_k chip_k * g[n - k*frame], landed after the preamble and the start
  // delay.
  const bool tilt_active = options.sampling.active();
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  std::vector<double> bit_chips;
  std::size_t bit_offset = 0;
  if (tilt_active) {
    (void)sampling_scale_or_throw(options, context);
    cap.target_bit = context.sampling_trial % cap.frame.frame_bits.size();
    const std::vector<double>& spread = tx_.spread_chips();
    for (std::size_t k = 0; k < ppb; ++k) bit_chips.push_back(spread[k % spread.size()]);
    bit_offset = (delay_frames + tx_.preamble_frames() + cap.target_bit * ppb) * frame_samples;
  }

  const std::span<const AdcWindow> blocks =
      rx_.decision_blocks(rx_len, fs, tx_, cap.frame.frame_bits.size(), cap.rx);
  if (!blocks.empty()) {
    // Converter path: only the decision blocks' converter samples exist.
    const std::size_t stride = rx_.lane_plan(fs)->stride;
    std::size_t total = 0;
    for (const AdcWindow& block : blocks) total += block.end - block.begin;
    Gen1ConverterArenas& arenas = gen1_converter_arenas();
    arenas.values.resize(total);
    arenas.white.resize(total);
    float* values = arenas.values.data();
    float* white = arenas.white.data();
    const auto& images =
        converter_images(kernel, delay_samples, frame_samples, train.amplitudes.size());
    {
      const obs::StageTimer timer(obs::Stage::kChannelConvolve, total);
      land_converter(train.amplitudes, delay_samples, frame_samples, stride, images, blocks,
                     values);
    }
    std::fill(white, white + total, 0.0f);
    channel::add_awgn(white, total, n0, rng);
    if (tilt_active) {
      // The tilt rides on the white draws n, along L^-1 times the target
      // bit's converter image in each block it touches: the converter
      // samples L * n then move along the bit's image, and the white-noise
      // likelihood ratio still holds.
      const ImageReach reach = image_reach(images, stride);
      const auto st = static_cast<std::ptrdiff_t>(stride);
      const auto bit_lo = static_cast<std::ptrdiff_t>(bit_offset) + reach.lo;
      const auto bit_hi =
          static_cast<std::ptrdiff_t>(bit_offset + (ppb - 1) * frame_samples) + reach.hi;
      const auto touched_lo = std::partition_point(
          blocks.begin(), blocks.end(),
          [&](const AdcWindow& b) { return static_cast<std::ptrdiff_t>(b.end) * st <= bit_lo; });
      const auto touched_hi = std::partition_point(
          touched_lo, blocks.end(),
          [&](const AdcWindow& b) { return static_cast<std::ptrdiff_t>(b.begin) * st < bit_hi; });
      std::size_t first = 0;
      for (auto it = blocks.begin(); it != touched_lo; ++it) first += it->end - it->begin;
      const std::span<const AdcWindow> touched(touched_lo, touched_hi);
      std::size_t touched_len = 0;
      for (const AdcWindow& block : touched) touched_len += block.end - block.begin;
      std::vector<float> bit_image(touched_len);
      land_converter(bit_chips, bit_offset, frame_samples, stride, images, touched,
                     bit_image.data());
      std::vector<double> shape(bit_image.begin(), bit_image.end());
      rx_.whiten(touched, rx_len, fs, shape.data());
      const TiltDirection<double> tilt =
          make_tilt_direction<double>(std::move(shape), first, total);
      const std::vector<double> clean(tilt.unit.size(), 0.0);
      cap.log_weight = apply_noise_tilt(
          [&](std::size_t i) { return static_cast<double>(white[i]); },
          [&](std::size_t i, double v) { white[i] += static_cast<float>(v); }, clean, tilt,
          0.5 * n0, options.sampling, context.noise_scale, rng);
    }
    if (n0 > 0.0) {
      const obs::StageTimer timer(obs::Stage::kChannelNoise, total);
      rx_.color_noise(blocks, rx_len, fs, white, values);
    }
    cap.converter = Gen1ConverterCapture{rx_len, blocks, {values, total}};
    return cap;
  }

  // Dense path: the whole analog capture.
  dsp::AlignedVec<float>& arena = gen1_capture_arena();
  {
    const obs::StageTimer timer(obs::Stage::kChannelConvolve, rx_len);
    // Grown to the longest delay the options allow, so the arena is mapped
    // once rather than again at each new largest delay drawn.
    arena.resize(options.start_delay_max_frames * frame_samples + train_len + pad);
    arena.resize(rx_len);
    land_train(train.amplitudes, delay_samples, frame_samples,
               {kernel.g_f.data(), kernel.g_f.size()}, arena.data(), rx_len);
  }
  float* rx = arena.data();
  if (tilt_active) {
    const RealVec& g = kernel.g;
    std::vector<double> shape((ppb - 1) * frame_samples + g.size(), 0.0);
    for (std::size_t k = 0; k < ppb; ++k) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        shape[k * frame_samples + i] += bit_chips[k] * g[i];
      }
    }
    const TiltDirection<double> tilt =
        make_tilt_direction<double>(std::move(shape), bit_offset, rx_len);
    std::vector<double> clean;
    if (tilt.usable) {
      clean.resize(tilt.unit.size());
      for (std::size_t i = 0; i < clean.size(); ++i) clean[i] = rx[tilt.offset + i];
    }
    channel::add_awgn(rx, rx_len, n0, rng);
    cap.log_weight = apply_noise_tilt(
        [&](std::size_t i) { return static_cast<double>(rx[i]); },
        [&](std::size_t i, double v) { rx[i] += static_cast<float>(v); }, clean, tilt, 0.5 * n0,
        options.sampling, context.noise_scale, rng);
  } else {
    channel::add_awgn(rx, rx_len, n0, rng);
  }
  cap.samples = {rx, rx_len};
  return cap;
}

sim::TrialOutcome Gen1Link::run_packet(const TrialOptions& options, Rng& rng,
                                       const TrialContext& context) {
  return run_packet_full(options, rng, context).outcome;
}

Gen1TrialResult Gen1Link::run_packet_full(const TrialOptions& options, Rng& rng,
                                          const TrialContext& context) {
  require_supported(Generation::kGen1, options);
  const Capture cap = synthesize_capture(options, context, rng);
  if (options.kind != TrialKind::kAcquisition) {
    return receive_capture(cap, options, rng);
  }

  // Acquisition trial: one attempt, a timing failure is its one "error".
  // Stop rules and the BER column therefore read as attempt count /
  // timing-failure rate, and the named metrics carry the acquisition
  // statistics.
  Gen1TrialResult trial;
  trial.true_offset_adc = cap.true_offset_adc;
  const Gen1AcqResult& acq = trial.rx.acq =
      rx_.acquire(cap.samples, config_.analog_fs, tx_, cap.rx, rng);
  // Compare timing modulo one PN period (the residual ambiguity the SFD
  // search resolves at frame level).
  const std::size_t period_samples =
      tx_.preamble_chips().size() * config_.frame_samples_adc;
  const auto diff = static_cast<std::ptrdiff_t>(acq.timing_offset % period_samples) -
                    static_cast<std::ptrdiff_t>(cap.true_offset_adc % period_samples);
  const std::size_t abs_diff =
      static_cast<std::size_t>(diff < 0 ? -diff : diff) % period_samples;
  const std::size_t wrapped = std::min(abs_diff, period_samples - abs_diff);
  const bool timing_correct = acq.acquired && wrapped <= options.acq_tol_samples;

  sim::TrialOutcome& out = trial.outcome;
  out.bits = 1;
  out.errors = timing_correct ? 0 : 1;
  out.set_metric(metric_names::kAcquired, acq.acquired ? 1.0 : 0.0);
  out.set_metric(metric_names::kTimingCorrect, timing_correct ? 1.0 : 0.0);
  // Only detected trials have a meaningful lock time: the metric's mean
  // is the mean over the detected subset, not diluted by misses.
  if (acq.acquired) out.set_metric(metric_names::kSyncTime, acq.sync_time_s);
  return trial;
}

Gen1TrialResult Gen1Link::receive_capture(const Capture& cap, const TrialOptions& options,
                                          Rng& rng) {
  Gen1TrialResult trial;
  trial.true_offset_adc = cap.true_offset_adc;
  trial.rx = cap.converter.blocks.empty()
                 ? rx_.receive(cap.samples, config_.analog_fs, tx_, cap.frame, cap.rx, rng)
                 : rx_.receive(cap.converter, tx_, cap.frame, cap.rx);

  const bool locked = cap.rx.genie_timing || trial.rx.acq.acquired;
  sim::TrialOutcome& out = trial.outcome;
  out.bits = trial.rx.bits_compared;
  out.errors = trial.rx.bit_errors;
  if (!locked) {
    out.bits = cap.frame.frame_bits.size();
    out.errors = cap.frame.frame_bits.size();
  }
  out.set_metric(metric_names::kAcquired, locked ? 1.0 : 0.0);

  if (options.sampling.active()) {
    std::size_t err = 1;  // lost packet: the target bit errored with the rest
    if (locked && cap.target_bit < trial.rx.data_bits.size()) {
      const bool tx_bit = cap.frame.frame_bits[cap.target_bit] != 0;
      err = ((trial.rx.data_bits[cap.target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    out.bits = 1;
    out.errors = err;
    out.set_weight(cap.log_weight);
  }
  return trial;
}

}  // namespace uwb::txrx
