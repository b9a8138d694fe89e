#pragma once
/// \file link.h
/// \brief The unified link-simulation API: transmitter -> channel (multipath
///        / interferer / AWGN) -> receiver, with per-packet trial results.
///
/// Both of the paper's transceiver generations -- the Section-2 baseband SoC
/// (Gen1Link) and the Section-3 direct-conversion 100 Mbps chip (Gen2Link)
/// -- implement one abstract Link interface: run_packet(TrialOptions, Rng).
/// Callers that only need "run a packet, count the
/// errors" (the sweep engine, the CLI, generic benches) work against Link
/// and a declarative LinkSpec; callers that inspect generation-specific
/// diagnostics use the concrete classes' run_packet_full.

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
#include "sim/ber_simulator.h"
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

  /// Largest accepted ensemble_count. An ensemble lives in memory whole (a
  /// CM4 realization averages ~7k taps, ~170 kB), so this caps one
  /// ensemble near 0.7 GB; specs and the CLI reject anything larger.
  static constexpr std::size_t kMaxEnsembleCount = 4096;

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
/// count and timing-failure rate. Only gen-1 accepts kAcquisition.
enum class TrialKind { kPacket, kAcquisition };

/// Canonical names of the scalar metrics the links emit on sim::TrialOutcome.
/// One shared vocabulary: specs name these in record_metrics, stop rules
/// target them, result docs key their per-metric statistics on them.
namespace metric_names {
inline constexpr const char* kAcquired = "acquired";                     ///< 0/1
inline constexpr const char* kTimingCorrect = "timing_correct";          ///< 0/1
inline constexpr const char* kSyncTime = "sync_time_s";                  ///< detected trials only
inline constexpr const char* kRakeEnergyCapture = "rake_energy_capture"; ///< gen-2
inline constexpr const char* kSnrEstimate = "snr_estimate_db";           ///< gen-2
/// Importance sampling: the trial's log-likelihood ratio (emitted by
/// TrialOutcome::set_weight, only when the spec's SamplingPolicy is active).
inline constexpr const char* kIsLlr = sim::kIsLlrMetric;
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
/// make run_packet throw -- validate_spec checks a spec up front.
struct TrialOptions {
  TrialKind kind = TrialKind::kPacket;  ///< packet (BER) vs acquisition trial
  int cm = 0;                    ///< 0 = AWGN only, 1..4 = 802.15.3a CM1..CM4
  ChannelSource channel_source;  ///< fresh draw (default) vs shared ensemble
  double ebn0_db = 10.0;
  std::size_t payload_bits = 200;
  bool genie_timing = false;     ///< BER-only runs skip acquisition

  /// Largest accepted payload_bits: 4x the 1016-bit (127-byte) 802.15.4a
  /// PSDU. Gen-1 spreads each bit over 16 PRF frames of 1296 analog
  /// samples, so a packet this long already fills a ~0.35 GB float
  /// capture per worker thread; specs and validate_spec reject anything
  /// longer.
  static constexpr std::size_t kMaxPayloadBits = 4096;

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

/// Exactly the metric names a (generation, kind) trial emits on its
/// sim::TrialOutcome -- the vocabulary record_metrics and stop-rule metrics must
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

  /// Runs one packet. All trial randomness (payload, delay, channel
  /// realization, noise) is drawn from \p rng, so a trial's outcome is a
  /// pure function of (spec, construction seed, rng) -- plus, for
  /// ensemble-mode options, the realization in \p context (which the sweep
  /// engine resolves as a pure function of the spec's ChannelSource key and
  /// the trial index).
  /// \throws InvalidArgument when \p options uses a feature the generation
  ///         lacks, or asks for an ensemble channel without a resolved
  ///         realization.
  [[nodiscard]] virtual sim::TrialOutcome run_packet(const TrialOptions& options, Rng& rng,
                                                     const TrialContext& context) = 0;

  /// Fresh-channel overload (default TrialContext).
  [[nodiscard]] sim::TrialOutcome run_packet(const TrialOptions& options, Rng& rng) {
    return run_packet(options, rng, TrialContext{});
  }

  /// Convenience overload on the link's own RNG (state advances).
  [[nodiscard]] sim::TrialOutcome run_packet(const TrialOptions& options) {
    return run_packet(options, rng_, TrialContext{});
  }

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
};

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

/// One sweep trial on \p link: fills the TrialContext -- the ensemble
/// realization \p cir (null = a fresh draw) and, when options.sampling is
/// active, the importance-sampling bias resolved from \p index -- runs the
/// packet on \p rng, and keeps only the metrics options.record_metrics
/// names, in its order (empty keeps all). Both the context and the filter
/// are pure functions of (options, index), so the outcome is the same
/// whichever worker runs the trial.
[[nodiscard]] sim::TrialOutcome run_trial(Link& link, const TrialOptions& options,
                                          std::size_t index, const channel::Cir* cir, Rng& rng);

/// The gen-2 composite kernel on split I/Q rails: g = \p prototype
/// convolved with cir.sampled(\p fs), one dsp::shifted_sum per rail (the
/// prototype samples as weights at shifts 0, 1, ...), so every sample sums
/// in dsp::convolve_direct's complex accumulation order whatever the sizes.
/// It is both the channel's per-slot response and the importance-sampling
/// tilt shape.
void gen2_composite_kernel(const RealVec& prototype, const channel::Cir& cir, double fs,
                           dsp::IqArena& g);

/// The gen-2 received capture before interference and noise, written to
/// \p rx: the train delayed by \p delay samples through the channel whose
/// composite kernel is \p g (prototype of \p proto_len samples),
/// y[n] = sum_m a_m * g[n - delay - offset_m] (dsp::shifted_sum per rail),
/// then \p pad zeros. This is the delayed dense train convolved with the
/// CIR, regrouped by slot: same length, equal to rounding -- and
/// bit-identical for the identity channel.
void gen2_synthesize_capture(const Gen2Train& train, std::size_t delay, std::size_t proto_len,
                             const dsp::IqArena& g, std::size_t pad, dsp::IqArena& rx);

/// One gen-2 packet's detailed outcome: the trial record run_packet
/// returns (importance-sampled trials are weighted and score the one
/// target bit) plus the receiver diagnostics and the true channel.
struct Gen2TrialResult {
  sim::TrialOutcome outcome;
  Gen2RxResult rx;
  channel::Cir true_channel;
};

/// The Section-3 direct-conversion 100 Mbps link (receiver mismatch drawn
/// once at construction).
class Gen2Link final : public Link {
 public:
  Gen2Link(const Gen2Config& config, uint64_t seed);

  [[nodiscard]] const Gen2Config& config() const noexcept { return config_; }
  [[nodiscard]] Gen2Transmitter& transmitter() noexcept { return tx_; }
  [[nodiscard]] Gen2Receiver& receiver() noexcept { return rx_; }

  [[nodiscard]] sim::TrialOutcome run_packet(const TrialOptions& options, Rng& rng,
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
  Gen2Transmitter tx_;
  Gen2Receiver rx_;
  // The composite kernel of the last channel realization, cached against
  // its exact tap list: ensemble-mode packets of a sweep point share one
  // realization (AWGN packets the identity), so g_ is built once per
  // point. It is a pure function of (taps, config), so caching cannot
  // change results for any worker count or trial order. A fresh per-trial
  // draw leaves no key: no later trial can hit it.
  std::optional<std::vector<channel::CirTap>> g_key_taps_;  ///< taps g_ was built from
  dsp::IqArena g_;                                          ///< composite kernel rails
};

/// One gen-1 trial's detailed outcome: the trial record run_packet returns
/// plus the receiver diagnostics (see Gen2TrialResult). Acquisition trials
/// fill rx.acq only.
struct Gen1TrialResult {
  sim::TrialOutcome outcome;
  Gen1RxResult rx;
  std::size_t true_offset_adc = 0;  ///< actual preamble start at ADC rate
};

/// The Section-2 baseband 193 kbps link. Same thread-safety contract as
/// Gen2Link: one link per worker, per-trial randomness through the
/// explicit-Rng overloads.
class Gen1Link final : public Link {
 public:
  Gen1Link(const Gen1Config& config, uint64_t seed);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }
  [[nodiscard]] Gen1Transmitter& transmitter() noexcept { return tx_; }
  [[nodiscard]] Gen1Receiver& receiver() noexcept { return rx_; }

  [[nodiscard]] sim::TrialOutcome run_packet(const TrialOptions& options, Rng& rng,
                                             const TrialContext& context) override;
  using Link::run_packet;

  /// Full-diagnostics variant: acquisition result, decoded bits, offsets.
  /// With TrialOptions::kind == kAcquisition the trial runs the acquisition
  /// search only; the outcome counts one attempt (bits = 1) and errors a
  /// timing failure -- found timing more than options.acq_tol_samples from
  /// the true one, modulo one PN period -- and its metrics carry acquired /
  /// timing_correct / sync_time_s.
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options, Rng& rng,
                                                const TrialContext& context);
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options, Rng& rng) {
    return run_packet_full(options, rng, TrialContext{});
  }
  [[nodiscard]] Gen1TrialResult run_packet_full(const TrialOptions& options) {
    return run_packet_full(options, rng_, TrialContext{});
  }

  /// One trial's received capture, from one of two sample sources.
  ///
  /// - Dense (acquisition, non-genie timing, a sampler without a lane
  ///   plan): \p samples holds the analog capture [0, length), viewing the
  ///   calling thread's capture arena; \p converter.blocks is empty.
  /// - Converter (genie timing with a lane plan): no analog sample exists.
  ///   \p converter holds the samples of the ADC blocks the decision reads
  ///   (Gen1Receiver::decision_blocks) before the AGC gain: each pulse
  ///   landed as its amplitude times the kernel's converter image, plus
  ///   noise drawn per block from its exact covariance. Its values view the
  ///   thread's converter arena; \p samples is empty.
  ///
  /// Either view is valid until the next synthesize_capture on the same
  /// thread, by any gen-1 link, and the blocks until the link's receiver's
  /// next call.
  struct Capture {
    TxFrame frame;
    std::size_t true_offset_adc = 0;  ///< preamble start at the ADC rate
    std::size_t length = 0;           ///< analog samples the capture spans
    std::span<const float> samples;
    Gen1ConverterCapture converter;
    Gen1RxOptions rx;                 ///< genie timing and the AGC model
    std::size_t target_bit = 0;       ///< importance-sampled trials only
    double log_weight = 0.0;          ///< importance-sampled trials only
  };

  /// The trial setup packet and acquisition trials share: draws the
  /// payload and start delay, lands the sparse pulse train through the
  /// channel as y[n] = sum_s a_s * g[n - delay - s*frame] (g = the
  /// composite kernel, the prototype on AWGN) -- at the converter, or
  /// densely into the float arena -- then adds AWGN, tilted along the
  /// target data bit's direction when options.sampling is active. Rng draw
  /// order: payload bits, delay, fresh-realization draws, noise seed, tilt
  /// draw.
  Capture synthesize_capture(const TrialOptions& options, const TrialContext& context,
                             Rng& rng);

  /// Receives \p cap from whichever source it holds and scores the trial:
  /// run_packet_full is synthesize_capture then this.
  [[nodiscard]] Gen1TrialResult receive_capture(const Capture& cap, const TrialOptions& options,
                                                Rng& rng);

 private:
  /// A pulse kernel g as the trial uses it: the double kernel shapes the
  /// dense importance-sampling tilt, the float mirror is what the dense
  /// scatter lands and what the converter images push through the front
  /// end, and ||h * g||^2 feeds the AGC model.
  struct Kernel {
    RealVec g;
    dsp::AlignedVec<float> g_f;
    double filtered_energy = 0.0;  ///< Gen1Receiver::filtered_energy(g)
    /// Converter images of g_f by lane phase, each built on first use.
    std::vector<std::optional<Gen1ConverterImage>> images;
  };

  /// \p kernel's converter images for every lane phase a train of
  /// \p pulses starting at analog sample \p delay, one \p frame apart,
  /// lands at.
  const std::vector<std::optional<Gen1ConverterImage>>& converter_images(
      Kernel& kernel, std::size_t delay, std::size_t frame, std::size_t pulses);

  /// The composite kernel g = pulse prototype convolved with the sampled
  /// CIR, driving the sparse pulse-train channel path: the tx waveform is
  /// a few monocycle samples per PRF frame, so the channel output is
  /// sum_k a_k * g[n - k*frame] at ~2% of the dense convolution's cost.
  /// Cached against the exact tap list: in ensemble mode every packet of a
  /// sweep point shares one realization, so g is computed once per point.
  /// g is a pure function of (taps, config) -- caching cannot change
  /// results for any worker count or trial order.
  Kernel& composite_kernel(const channel::Cir& cir);

  /// The prototype pulse as a kernel (AWGN-only trials), built on first use.
  Kernel& prototype_kernel();

  Gen1Config config_;
  Gen1Transmitter tx_;
  Gen1Receiver rx_;
  std::vector<channel::CirTap> g_key_taps_;  ///< taps channel_kernel_ was built from
  Kernel channel_kernel_;
  Kernel proto_kernel_;
};

}  // namespace uwb::txrx
