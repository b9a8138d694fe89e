#pragma once
/// \file link.h
/// \brief The unified link-simulation API: transmitter -> channel (multipath
///        / interferer / AWGN) -> receiver, with per-packet trial results.
///
/// Both of the paper's transceiver generations -- the Section-2 baseband SoC
/// (Gen1Link) and the Section-3 direct-conversion 100 Mbps chip (Gen2Link)
/// -- implement one abstract Link interface: run_packet(TrialOptions, Rng)
/// plus capability queries. Callers that only need "run a packet, count the
/// errors" (the sweep engine, the CLI, generic benches) work against Link
/// and a declarative LinkSpec; callers that inspect generation-specific
/// diagnostics use the concrete classes' run_packet_full / run_acquisition.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "channel/saleh_valenzuela.h"
#include "common/rng.h"
#include "dsp/aligned.h"
#include "fec/convolutional.h"
#include "stats/sampling.h"
#include "txrx/receiver_gen1.h"
#include "txrx/receiver_gen2.h"
#include "txrx/transceiver_config.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {

/// The paper's two transceiver generations.
enum class Generation { kGen1, kGen2 };

/// Human-readable generation name ("gen1" / "gen2").
std::string to_string(Generation gen);

/// Where a trial's multipath realization comes from.
///
/// kFresh draws a new Saleh-Valenzuela realization from the trial Rng
/// inside run_packet (the historical behavior). kEnsemble indexes into a
/// precomputed ensemble keyed by (canonical SvParams fingerprint,
/// ensemble_seed, ensemble_count): trial i uses realization
/// `i % ensemble_count`, resolved by the sweep engine (or any caller) and
/// handed to run_packet through TrialContext. Running an ensemble-mode
/// trial on a multipath channel *without* a resolved realization throws --
/// the spec promised shared channels, silently drawing fresh ones would be
/// a different experiment. See engine/channel_cache.h.
struct ChannelSource {
  enum class Mode { kFresh, kEnsemble };

  /// Default base seed for ensembles (any fixed value works; what matters
  /// is that it is spec content, identical across shards and hosts).
  static constexpr uint64_t kDefaultEnsembleSeed = 0xC1A0'5eed'0000'0001ULL;

  Mode mode = Mode::kFresh;
  uint64_t ensemble_seed = kDefaultEnsembleSeed;
  std::size_t ensemble_count = 0;  ///< must be >= 1 in ensemble mode

  [[nodiscard]] bool is_ensemble() const noexcept { return mode == Mode::kEnsemble; }
  [[nodiscard]] bool operator==(const ChannelSource&) const = default;
};

/// Runtime-only companion to TrialOptions: state resolved per trial by the
/// harness, never serialized: the ensemble realization the trial must use
/// (null = draw fresh, the default) and -- when the spec carries an active
/// stats::SamplingPolicy -- the resolved importance-sampling bias. Links
/// throw when options ask for sampling but no harness resolved the bias
/// (sampling_resolved stays false): running such a trial unweighted would
/// silently be a different experiment. The sweep engine resolves both as
/// pure functions of the spec and the global trial index.
struct TrialContext {
  const channel::Cir* channel = nullptr;
  double noise_scale = 1.0;       ///< tilt scale for this trial (>= 1)
  std::size_t sampling_trial = 0; ///< global trial index (stratifies the target bit)
  bool sampling_resolved = false; ///< harness filled the two fields above
};

/// The S-V parameter set an ensemble-mode trial keys its ensemble on: the
/// CM profile in the generation's tap convention (complex phases at gen-2
/// complex baseband, +/-1 polarity for the gen-1 real passband). The ONE
/// cm -> SvParams mapping every ensemble producer and consumer must share
/// -- precompute writes store files under these keys, the sweep engine
/// looks them up. \throws InvalidArgument for cm outside 1..4.
[[nodiscard]] channel::SvParams ensemble_sv_params(int cm, Generation gen);

/// What one trial measures. kPacket transmits and demodulates a payload
/// (BER accounting); kAcquisition runs the dedicated acquisition search
/// only -- the trial's bits/errors then count acquisition *attempts* and
/// timing failures (bits = 1, errors = timing_correct ? 0 : 1), so the
/// standard error-count stopping rules and the BER column read as attempt
/// count and timing-failure rate. Only generations whose LinkCaps set
/// supports_acquisition_trials accept kAcquisition.
enum class TrialKind { kPacket, kAcquisition };

/// Canonical names of the scalar metrics the links emit on TrialResult.
/// One shared vocabulary: specs name these in record_metrics, stop rules
/// target them, result docs key their per-metric statistics on them.
namespace metric_names {
inline constexpr const char* kAcquired = "acquired";                     ///< 0/1
inline constexpr const char* kTimingCorrect = "timing_correct";          ///< 0/1
inline constexpr const char* kSyncTime = "sync_time_s";                  ///< detected trials only
inline constexpr const char* kRakeEnergyCapture = "rake_energy_capture"; ///< gen-2
inline constexpr const char* kSnrEstimate = "snr_estimate_db";           ///< gen-2
/// Importance sampling: the trial's log-likelihood ratio (emitted only
/// when the spec's SamplingPolicy is active; the engine folds it into the
/// weighted BER estimate).
inline constexpr const char* kIsLlr = "is_llr";
/// Spectral monitor verdict, 0/1 (gen-2 packet trials that ran the monitor).
inline constexpr const char* kInterfererDetected = "interferer_detected";
/// Monitor peak-over-median (dB); emitted whenever the monitor ran.
inline constexpr const char* kInterfererPom = "interferer_peak_over_median_db";
/// |estimated - true| CW frequency error (Hz); detected interferer trials only.
inline constexpr const char* kInterfererFreqErr = "interferer_freq_err_hz";
}  // namespace metric_names

/// Channel/impairment options for one packet trial, shared by both
/// generations. Field defaults match the gen-2 100 Mbps link benches;
/// default_options(Generation::kGen1) returns the gen-1 BER-run defaults
/// (short payload, genie timing). Options a generation cannot honor
/// (interferer / auto_notch / fec on gen-1, acquisition trials on gen-2)
/// make run_packet throw -- see LinkCaps for querying support up front.
struct TrialOptions {
  TrialKind kind = TrialKind::kPacket;  ///< packet (BER) vs acquisition trial
  int cm = 0;                    ///< 0 = AWGN only, 1..4 = 802.15.3a CM1..CM4
  ChannelSource channel_source;  ///< fresh draw (default) vs shared ensemble
  double ebn0_db = 10.0;
  std::size_t payload_bits = 200;
  bool genie_timing = false;     ///< BER-only runs skip acquisition

  /// kAcquisition: found timing counts as correct within +/- this many ADC
  /// samples of the true offset (modulo one PN period).
  std::size_t acq_tol_samples = 2;

  /// Which of the link's metrics to record (empty = all the trial emits).
  /// Names must come from the trial kind's vocabulary -- see
  /// trial_metric_names; validate_spec and the spec reader reject unknown
  /// names loudly.
  std::vector<std::string> record_metrics;

  /// Random TX start, what acquisition must find. Gen-2 draws a delay in
  /// analog samples, gen-1 in PRF frames; both fields carry their
  /// generation's canonical default so one struct serves either link.
  std::size_t start_delay_max_samples = 32;  ///< gen-2 (analog rate)
  std::size_t start_delay_max_frames = 64;   ///< gen-1 (PRF frames)

  // Gen-2-only impairments / mitigations.
  bool interferer = false;
  double interferer_sir_db = 0.0;     ///< signal-to-interference ratio
  double interferer_freq_hz = 80e6;   ///< baseband offset of the CW tone
  bool auto_notch = false;            ///< spectral monitor drives the notch
  bool run_spectral_monitor = true;

  /// Outer convolutional code (gen-2 only). When set, the payload is
  /// encoded before transmission and soft-Viterbi decoded from the RAKE
  /// soft outputs (requires BPSK and disables the MLSE hard path for the
  /// trial). Note that energy accounting stays per *coded* bit: at equal
  /// options.ebn0_db a rate-1/2 coded trial spends 3 dB more energy per
  /// information bit.
  std::optional<fec::ConvCode> fec;

  /// Rare-event importance sampling (stats/sampling.h). When active, each
  /// trial targets one payload bit (stratified by trial index), scales the
  /// noise along that bit's received-waveform direction, and reports the
  /// target bit's error (bits = 1) plus the log-likelihood ratio as the
  /// is_llr metric. Packet trials only; incompatible with fec, and gen-2
  /// requires BPSK payload modulation.
  stats::SamplingPolicy sampling;
};

/// Canonical per-generation defaults: gen-2 returns TrialOptions{}; gen-1
/// returns the short-payload genie-timed BER-run defaults.
[[nodiscard]] TrialOptions default_options(Generation gen);

/// Generation-agnostic outcome of one trial: the bit/error pair every
/// Monte-Carlo loop consumes (first-class, never a metric) plus an
/// extensible record of named scalar metrics -- acquisition flags, sync
/// time, RAKE capture, SNR estimate (see metric_names). A metric absent
/// from a trial contributes no observation to its reduction (sync_time_s
/// is emitted only on detected trials, so its mean averages the detected
/// subset). Generation-specific detail (CIR estimates, soft streams,
/// acquisition internals) lives in Gen1TrialResult / Gen2TrialResult.
struct TrialResult {
  std::size_t bits = 0;
  std::size_t errors = 0;

  /// (name, value) in emission order; names unique per trial.
  std::vector<std::pair<std::string, double>> metrics;

  void set_metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }

  /// The named metric's value, or nullopt when this trial did not emit it.
  [[nodiscard]] std::optional<double> metric(const std::string& name) const {
    for (const auto& [key, value] : metrics) {
      if (key == name) return value;
    }
    return std::nullopt;
  }
};

/// What a link implementation supports; make_link validates a spec's
/// options against these, and run_packet fails loudly on unsupported
/// options rather than silently ignoring them.
struct LinkCaps {
  Generation generation = Generation::kGen2;
  double bit_rate_hz = 0.0;
  bool complex_baseband = false;   ///< I/Q (gen-2) vs real baseband (gen-1)
  bool supports_interferer = false;
  bool supports_auto_notch = false;
  bool supports_fec = false;
  bool supports_acquisition_trials = false;  ///< accepts TrialKind::kAcquisition

  /// Every metric name this link can emit on TrialResult, across all trial
  /// kinds (trial_metric_names narrows this to one kind's emission set).
  std::vector<std::string> metric_names;
};

/// Exactly the metric names a (generation, kind) trial emits on
/// TrialResult -- the vocabulary record_metrics and stop-rule metrics must
/// come from. \throws InvalidArgument when the generation does not support
/// the kind.
[[nodiscard]] std::vector<std::string> trial_metric_names(Generation gen, TrialKind kind);

/// True when a (generation, kind) trial emits the named metric -- the one
/// membership check every record_metrics / stop-metric validator shares.
/// \throws InvalidArgument when the generation does not support the kind.
[[nodiscard]] bool emits_metric(Generation gen, TrialKind kind, const std::string& name);

/// Abstract generation-agnostic link.
///
/// Thread-safety: a link instance is NOT safe for concurrent run_packet
/// calls (the receiver mutates per-packet state). Parallel sweeps give each
/// worker its own link built from the same (spec, seed) -- identical
/// hardware mismatch -- and pass an explicit per-trial Rng so results are a
/// pure function of that Rng, independent of which worker runs the trial.
class Link {
 public:
  explicit Link(uint64_t seed) : rng_(seed) {}
  virtual ~Link() = default;

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] virtual const LinkCaps& caps() const noexcept = 0;
  [[nodiscard]] Generation generation() const noexcept { return caps().generation; }

  /// Runs one packet. All trial randomness (payload, delay, channel
  /// realization, noise) is drawn from \p rng, so a trial's outcome is a
  /// pure function of (spec, construction seed, rng) -- plus, for
  /// ensemble-mode options, the realization in \p context (which the sweep
  /// engine resolves as a pure function of the spec's ChannelSource key and
  /// the trial index).
  /// \throws InvalidArgument when \p options uses a feature caps() lacks,
  ///         or asks for an ensemble channel without a resolved realization.
  [[nodiscard]] virtual TrialResult run_packet(const TrialOptions& options, Rng& rng,
                                               const TrialContext& context) = 0;

  /// Fresh-channel overload (default TrialContext).
  [[nodiscard]] TrialResult run_packet(const TrialOptions& options, Rng& rng) {
    return run_packet(options, rng, TrialContext{});
  }

  /// Convenience overload on the link's own RNG (state advances).
  [[nodiscard]] TrialResult run_packet(const TrialOptions& options) {
    return run_packet(options, rng_, TrialContext{});
  }

  /// Direct access to the trial RNG (benches print the seed).
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 protected:
  Rng rng_;
};

/// Everything needed to construct a link and run packet trials: which
/// generation (via the config alternative) plus the per-trial options.
/// This is the serializable unit the scenario registry, the JSON scenario
/// files, and the uwb_sweep CLI all traffic in.
struct LinkSpec {
  std::variant<Gen1Config, Gen2Config> config = Gen2Config{};
  TrialOptions options{};

  [[nodiscard]] Generation generation() const noexcept {
    return config.index() == 0 ? Generation::kGen1 : Generation::kGen2;
  }
  [[nodiscard]] const Gen1Config& gen1() const { return std::get<Gen1Config>(config); }
  [[nodiscard]] const Gen2Config& gen2() const { return std::get<Gen2Config>(config); }
  [[nodiscard]] Gen1Config& gen1() { return std::get<Gen1Config>(config); }
  [[nodiscard]] Gen2Config& gen2() { return std::get<Gen2Config>(config); }

  /// Spec for a gen-1 link with the gen-1 option defaults.
  [[nodiscard]] static LinkSpec for_gen1(Gen1Config config);
  [[nodiscard]] static LinkSpec for_gen1(Gen1Config config, TrialOptions options);

  /// Spec for a gen-2 link with the gen-2 option defaults.
  [[nodiscard]] static LinkSpec for_gen2(Gen2Config config);
  [[nodiscard]] static LinkSpec for_gen2(Gen2Config config, TrialOptions options);
};

/// Generation-level capability flags without constructing any hardware
/// (bit_rate_hz stays 0; it depends on the concrete config).
[[nodiscard]] LinkCaps generation_caps(Generation gen);

/// Checks \p spec's options against its generation's capabilities.
/// \throws InvalidArgument on an unsupported feature (e.g. FEC or an
///         interferer on gen-1). Cheap: no transmitter/receiver is built,
///         so sweep runners can validate a whole plan up front.
void validate_spec(const LinkSpec& spec);

/// Factory: builds the concrete link for \p spec's generation.
/// \throws InvalidArgument when spec.options uses a feature the generation
///         does not support (see validate_spec), so bad specs fail at
///         construction, not mid-sweep.
[[nodiscard]] std::unique_ptr<Link> make_link(const LinkSpec& spec, uint64_t seed);

/// The gen-2 composite kernel on split I/Q rails: g = \p prototype
/// convolved with cir.sampled(\p fs), by direct convolution (independent of
/// the fast-convolve policy) in the direct complex kernel's accumulation
/// order. It is both the channel's per-slot response and the
/// importance-sampling tilt shape.
void gen2_composite_kernel(const RealVec& prototype, const channel::Cir& cir, double fs,
                           dsp::IqArena& g);

/// The gen-2 received capture before interference and noise, written to
/// \p rx: the train delayed by \p delay samples through the channel whose
/// composite kernel is \p g (prototype of \p proto_len samples),
/// y[n] = sum_m a_m * g[n - delay - offset_m], then \p pad zeros. This is
/// the delayed dense train convolved with the CIR, regrouped by slot: same
/// length, equal to rounding -- and bit-identical for the identity channel.
void gen2_synthesize_capture(const Gen2Train& train, std::size_t delay, std::size_t proto_len,
                             const dsp::IqArena& g, std::size_t pad, dsp::IqArena& rx);

/// One gen-2 packet's detailed outcome. Importance-sampled trials set
/// \p weighted: bits/errors then cover the one target bit and is_llr
/// carries the trial's log-likelihood ratio.
struct Gen2TrialResult {
  std::size_t bits = 0;
  std::size_t errors = 0;
  Gen2RxResult rx;
  channel::Cir true_channel;
  double is_llr = 0.0;
  bool weighted = false;
};

/// The Section-3 direct-conversion 100 Mbps link (receiver mismatch drawn
/// once at construction).
class Gen2Link final : public Link {
 public:
  Gen2Link(const Gen2Config& config, uint64_t seed);

  [[nodiscard]] const LinkCaps& caps() const noexcept override { return caps_; }
  [[nodiscard]] const Gen2Config& config() const noexcept { return config_; }
  [[nodiscard]] Gen2Transmitter& transmitter() noexcept { return tx_; }
  [[nodiscard]] Gen2Receiver& receiver() noexcept { return rx_; }

  [[nodiscard]] TrialResult run_packet(const TrialOptions& options, Rng& rng,
                                       const TrialContext& context) override;
  using Link::run_packet;

  /// Full-diagnostics variant: receiver state, soft streams, true CIR.
  [[nodiscard]] Gen2TrialResult run_packet_full(const TrialOptions& options, Rng& rng,
                                                const TrialContext& context);
  [[nodiscard]] Gen2TrialResult run_packet_full(const TrialOptions& options, Rng& rng) {
    return run_packet_full(options, rng, TrialContext{});
  }
  [[nodiscard]] Gen2TrialResult run_packet_full(const TrialOptions& options) {
    return run_packet_full(options, rng_, TrialContext{});
  }

 private:
  Gen2Config config_;
  LinkCaps caps_;
  Gen2Transmitter tx_;
  Gen2Receiver rx_;
  // The composite kernel of the last channel realization, cached against
  // its exact tap list: ensemble-mode packets of a sweep point share one
  // realization (AWGN packets the identity), so g_ is built once per
  // point. It is a pure function of (taps, config), so caching cannot
  // change results for any worker count or trial order.
  std::vector<channel::CirTap> g_key_taps_;  ///< taps g_ was built from
  dsp::IqArena g_;                           ///< composite kernel rails
};

/// One gen-1 packet's detailed outcome. See Gen2TrialResult for the
/// weighted (importance-sampled) trial accounting.
struct Gen1TrialResult {
  std::size_t bits = 0;
  std::size_t errors = 0;
  Gen1RxResult rx;
  std::size_t true_offset_adc = 0;  ///< actual preamble start at ADC rate
  double is_llr = 0.0;
  bool weighted = false;
};

/// The Section-2 baseband 193 kbps link. Same thread-safety contract as
/// Gen2Link: one link per worker, per-trial randomness through the
/// explicit-Rng overloads.
class Gen1Link final : public Link {
 public:
  Gen1Link(const Gen1Config& config, uint64_t seed);

  [[nodiscard]] const LinkCaps& caps() const noexcept override { return caps_; }
  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }
  [[nodiscard]] Gen1Transmitter& transmitter() noexcept { return tx_; }
  [[nodiscard]] Gen1Receiver& receiver() noexcept { return rx_; }

  [[nodiscard]] TrialResult run_packet(const TrialOptions& options, Rng& rng,
                                       const TrialContext& context) override;
  using Link::run_packet;

  /// Full-diagnostics variant: acquisition result, decoded bits, offsets.
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options, Rng& rng,
                                                const TrialContext& context);
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options, Rng& rng) {
    return run_packet_full(options, rng, TrialContext{});
  }
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options) {
    return run_packet_full(options, rng_, TrialContext{});
  }

  /// Acquisition-only trial diagnostics: the acquisition result plus
  /// whether the found timing matches the true one (within +/- tol
  /// samples, modulo one PN period). run_packet with
  /// TrialOptions::kind == kAcquisition runs this same trial through the
  /// generic Link interface -- bits/errors count attempts and timing
  /// failures, metrics carry acquired / timing_correct / sync_time_s --
  /// so acquisition scenarios flow through the sweep engine like any
  /// other; these overloads stay for callers that inspect Gen1AcqResult.
  struct AcqTrial {
    Gen1AcqResult acq;
    bool timing_correct = false;
    std::size_t true_offset_adc = 0;
  };
  [[nodiscard]] AcqTrial run_acquisition(const TrialOptions& options,
                                         std::size_t tol_samples = 2);

  /// Seed-parameterized acquisition trial; ensemble-mode options take
  /// their multipath realization from \p context like run_packet does.
  [[nodiscard]] AcqTrial run_acquisition(const TrialOptions& options, Rng& rng,
                                         std::size_t tol_samples,
                                         const TrialContext& context = TrialContext{});

 private:
  /// The composite kernel g = pulse prototype convolved with the sampled
  /// CIR, driving the sparse pulse-train channel path: the tx waveform is
  /// a few monocycle samples per PRF frame, so the channel output is
  /// sum_k a_k * g[n - k*frame] at ~2% of the dense convolution's cost.
  /// Cached against the exact tap list: in ensemble mode every packet of a
  /// sweep point shares one realization, so g is computed once per point.
  /// g is a pure function of (taps, config) -- caching cannot change
  /// results for any worker count or trial order. Rebuilds also refresh the
  /// float mirror g_kernel_f_ that the single-precision scatter path reads.
  const RealVec& composite_kernel(const channel::Cir& cir);

  /// Float mirror of the prototype pulse (the AWGN-only scatter kernel),
  /// built on first use.
  const dsp::AlignedVec<float>& prototype_f();

  /// Sparse pulse-train synthesis + channel + AWGN straight into the
  /// single-precision sample arena: y[n] += a_s * g[n - delay - s*frame]
  /// over \p kernel, then float noise at \p n0. Returns the arena span the
  /// receiver's float overloads consume.
  std::span<const float> scatter_and_noise(const std::vector<double>& amplitudes,
                                           std::size_t delay_frames,
                                           const dsp::AlignedVec<float>& kernel, double n0,
                                           Rng& rng);

  Gen1Config config_;
  LinkCaps caps_;
  Gen1Transmitter tx_;
  Gen1Receiver rx_;
  std::vector<channel::CirTap> g_key_taps_;  ///< taps g_kernel_ was built from
  RealVec g_kernel_;
  dsp::AlignedVec<float> g_kernel_f_;  ///< float mirror of g_kernel_
  dsp::AlignedVec<float> proto_f_;     ///< float mirror of the prototype pulse
  dsp::AlignedVec<float> rx_arena_;    ///< per-packet received-sample arena
};

}  // namespace uwb::txrx
