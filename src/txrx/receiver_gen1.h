#pragma once
/// \file receiver_gen1.h
/// \brief The generation-1 receiver of Fig. 1: no downconverter, 4-way
///        time-interleaved flash ADC at 2 GSps, and a fully-digital back end
///        whose parallel correlators perform coarse acquisition, fine
///        timing and despreading.
///
/// Two-stage coarse acquisition (the "< 70 us" machinery):
///   Stage 1 -- pulse phase: noncoherent combining of |matched filter| over
///     acq_integration_frames frames for each of the frame_samples_adc
///     candidate sample phases, acq_parallelism_stage1 at a time.
///   Stage 2 -- code phase: one PN period (127 frames = 41.1 us) of
///     per-frame samples correlated against all cyclic shifts of the PN,
///     acq_parallelism_stage2 shifts at a time.
/// Modeled sync time = dwells1 * K1 * Tf + dwells2 * 127 * Tf, the real-time
/// cost of a streaming architecture with that much correlator hardware.

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "common/rng.h"
#include "common/types.h"
#include "txrx/transceiver_config.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {

/// Gen-1 acquisition diagnostics.
struct Gen1AcqResult {
  bool acquired = false;
  std::size_t pulse_phase = 0;    ///< sample phase within a frame (stage 1)
  std::size_t code_phase = 0;     ///< PN chip shift (stage 2)
  std::size_t timing_offset = 0;  ///< preamble start sample at the ADC rate
  double stage2_metric = 0.0;     ///< normalized code correlation
  double sync_time_s = 0.0;       ///< modeled elapsed acquisition time
};

/// Per-packet receive result.
struct Gen1RxResult {
  Gen1AcqResult acq;
  BitVec data_bits;             ///< decoded data-section bits
  std::size_t bit_errors = 0;
  std::size_t bits_compared = 0;
};

/// What the converged AGC knows of a capture. The gain is set from the
/// capture's expected power after the anti-alias FIR h rather than from a
/// measurement of every filtered sample: over an n-sample capture
///   r^2 = (pulse_energy * filtered_kernel_energy + (n0 / 2) * sum(h^2) * n) / n,
/// the train's pulses sum_s a_s^2 each landing as ||h * g||^2 (g the pulse
/// prototype, or the composite kernel through the channel; the cross terms
/// of pulses a PRF frame apart are left out), plus the filtered real AWGN
/// of per-sample variance n0/2. The gain loads the flash at 1/4 full scale rms, 0.25 / r.
/// A zero model leaves the samples unscaled.
struct Gen1AgcModel {
  double pulse_energy = 0.0;            ///< sum_s a_s^2 over the train sent
  double filtered_kernel_energy = 0.0;  ///< ||h * g||^2, see filtered_energy()
  double n0 = 0.0;                      ///< noise density of the capture's AWGN
};

/// Receiver options per run.
struct Gen1RxOptions {
  bool genie_timing = false;    ///< skip acquisition, use genie_offset
  std::size_t genie_offset = 0; ///< known preamble start at the ADC rate
  Gen1AgcModel agc;             ///< what sets the AGC gain
};

/// A half-open range [begin, end) of ADC sample indices.
struct AdcWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The matched-filter outputs one digitize pass computed: runs of
/// consecutive output indices, ascending, with their values packed in
/// \p values. Views the receiver's runs and the calling thread's sample
/// buffers: valid until the next pass on that receiver or, by any gen-1
/// receiver, on that thread.
struct Gen1MfView {
  struct Run {
    std::size_t begin = 0;   ///< first output index
    std::size_t end = 0;     ///< one past the last
    std::size_t offset = 0;  ///< position of output `begin` in values
  };
  std::span<const Run> runs;
  std::span<const float> values;

  /// The output at ADC index \p idx, or nullptr when the pass did not
  /// compute it.
  [[nodiscard]] const float* find(std::size_t idx) const noexcept;

  /// Outputs [0, n) when the pass covered the whole capture (one run from
  /// index 0), else empty.
  [[nodiscard]] std::span<const float> dense() const noexcept;

  /// find() for a caller whose reads ascend (the despread and SFD loops):
  /// each read moves forward from the run the last one landed in, so a
  /// pass over every run costs one step per run instead of a binary search
  /// per read. A read below the previous one starts over, so any order
  /// gives find()'s answers.
  class Cursor {
   public:
    explicit Cursor(const Gen1MfView& view) noexcept : view_(&view) {}
    [[nodiscard]] const float* at(std::size_t idx) noexcept;

   private:
    const Gen1MfView* view_;
    std::size_t run_ = 0;
    std::size_t last_ = 0;
  };
};

/// A pulse kernel as the converter sees it. Landed at analog sample p and
/// pushed through the anti-alias FIR and the converter's per-lane
/// interpolation, kernel g reaches ADC index (p - phase) / stride + first + i
/// as values[i], phase = p mod (stride * lanes) being the pulse's lane
/// phase; every other converter sample is zero. Linear, so a pulse train
/// lands as the sum of its amplitudes times these images.
struct Gen1ConverterImage {
  std::ptrdiff_t first = 0;
  std::vector<float> values;
};

/// The converter-rate noise of one ADC block. A maps the analog samples the
/// block's m converter samples read (anti-alias FIR, then per-lane
/// interpolation) to those samples; `lower` is the Cholesky factor L of
/// A * A^T, so L * n with n white of variance n0/2 has the exact covariance
/// the block's samples get from white analog noise of that variance.
struct Gen1NoiseFactor {
  std::size_t m = 0;
  std::vector<double> lower;   ///< L, row-major m x m, zero above the diagonal
  /// L column-major in float, what color() reads: columns column_stride()
  /// floats apart, zero-padded.
  std::vector<float> columns;

  /// m rounded up to whole 4-float vectors.
  [[nodiscard]] std::size_t column_stride() const noexcept { return (m + 3) / 4 * 4; }

  /// out[0, m) += L * white[0, m).
  void color(const float* white, float* out) const noexcept;

  /// v[0, m) := L^-1 v by forward substitution (a zero pivot gives 0).
  void whiten(double* v) const noexcept;
};

/// A capture as the converter sees it (the converter path): the samples of
/// ADC \p blocks of an analog capture of \p analog_len samples, before the
/// AGC gain. Blocks ascend, are disjoint and start on lane 0
/// (Gen1Receiver::decision_blocks); their samples sit packed in \p values
/// in block order.
struct Gen1ConverterCapture {
  std::size_t analog_len = 0;
  std::span<const AdcWindow> blocks;
  std::span<const float> values;
};

namespace test_hooks {

/// Overwrites the calling thread's gen-1 sample buffers -- the capture
/// arena, the converter-rate arenas and every receive buffer, over their
/// whole capacity -- with \p value. A trial reads only what it wrote, so
/// poisoning them (NaN) must change no result. Tests only; defined with
/// the capture arenas in link.cpp.
void fill_gen1_thread_buffers(float value);

}  // namespace test_hooks

/// The gen-1 receiver.
class Gen1Receiver {
 public:
  using LanePlan = adc::SampleAndHold::LanePlan;

  /// Longest ADC block the converter path draws noise for jointly: a
  /// decision whose windows merge into a longer block reads the capture
  /// densely (a Cholesky factor costs m^3 / 3 to build).
  static constexpr std::size_t kMaxBlockSamples = 256;

  /// \p rng draws the converter's static mismatch once (comparator offsets,
  /// lane gain/offset/skew).
  Gen1Receiver(const Gen1Config& config, Rng& rng);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }

  /// The converter's lane plan at analog rate \p fs (its lane skews
  /// included), or nullopt for a jittered sampler.
  [[nodiscard]] std::optional<LanePlan> lane_plan(double fs) const;

  /// ||h * g||^2 of the anti-alias FIR h (the float taps the filter runs)
  /// over a pulse kernel \p g, in double: the energy one pulse of unit
  /// amplitude lands with after the filter (Gen1AgcModel).
  [[nodiscard]] double filtered_energy(const RealVec& g) const;

  /// The rms \p agc expects of an \p n-sample capture after the FIR: the
  /// AGC gain is 0.25 over it.
  [[nodiscard]] double expected_rms(const Gen1AgcModel& agc, std::size_t n) const;

  /// The ADC blocks a receive of an \p n-sample capture reads, when its
  /// decision reads less than the whole capture: with genie timing, one
  /// matched-filter output per data pulse, each widened by the pulse
  /// template to whole lane patterns. Blocks whose analog inputs overlap
  /// merge (gap included), so distinct blocks see independent noise.
  /// Empty -- read the whole capture densely -- for acquisition, non-genie
  /// timing, a sampler without a lane plan (aperture jitter), a block
  /// longer than kMaxBlockSamples, or one that reads past either end of
  /// the capture. The plan is kept: a call with the same inputs returns it
  /// without planning again. The span views the receiver's own buffer,
  /// valid until a call with other inputs.
  [[nodiscard]] std::span<const AdcWindow> decision_blocks(std::size_t n, double fs,
                                                           const Gen1Transmitter& tx,
                                                           std::size_t num_bits,
                                                           const Gen1RxOptions& options);

  /// The converter image of pulse kernel \p g at lane phase \p phase
  /// (see Gen1ConverterImage), computed through the receiver's own float
  /// FIR and lane interpolation. Needs a lane plan.
  [[nodiscard]] Gen1ConverterImage converter_image(std::span<const float> g, std::size_t phase,
                                                   double fs) const;

  /// Colors the converter path's noise: block by block, \p values (the
  /// blocks' samples, packed) += L * \p white (as packed), L each block's
  /// noise factor. A block starts on lane 0 and reads only inside the
  /// \p n-sample capture (\throws InvalidArgument otherwise); its A is
  /// measured by pushing unit impulses through the receiver's own FIR and
  /// lane interpolation. Factors are built lazily, once per block length,
  /// and kept for the receiver's life: such a block's A depends on its
  /// length alone.
  void color_noise(std::span<const AdcWindow> blocks, std::size_t n, double fs,
                   const float* white, float* values);

  /// Block by block, \p v (packed as the blocks) := L^-1 v, L each block's
  /// noise factor: a direction of the converter samples mapped onto the
  /// white draws color_noise() colors.
  void whiten(std::span<const AdcWindow> blocks, std::size_t n, double fs, double* v);

  /// Full receive of a dense analog capture \p rx at rate \p fs: sample,
  /// convert, matched-filter, acquire, despread -- the whole chain in
  /// single precision.
  [[nodiscard]] Gen1RxResult receive(std::span<const float> rx, double fs,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, Rng& rng);

  /// The same receive from the converter's samples (genie timing; the
  /// blocks cover decision_blocks()).
  [[nodiscard]] Gen1RxResult receive(const Gen1ConverterCapture& capture,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options);

  /// Acquisition only (bench E2/E11): processes a capture containing at
  /// least one PN period past the search uncertainty, gain set by
  /// options.agc (the timing fields are not read).
  [[nodiscard]] Gen1AcqResult acquire(std::span<const float> rx, double fs,
                                      const Gen1Transmitter& tx,
                                      const Gen1RxOptions& options, Rng& rng);

  /// The dense sample source: analog band-limiting of the whole capture
  /// \p rx, sampling, AGC gain (from options.agc), interleaved conversion
  /// and matched filtering, all in single precision. The view holds every
  /// output, one run from index 0, valid until the next call on this
  /// receiver or, by any gen-1 receiver, on this thread.
  [[nodiscard]] Gen1MfView digitize_and_filter(std::span<const float> rx, double fs,
                                               const Gen1Transmitter& tx,
                                               const Gen1RxOptions& options, Rng& rng);

  /// The converter sample source: the AGC gain, conversion and matched
  /// filter over \p capture's blocks, whose samples stand in for the FIR
  /// and sampler; one run per block long enough for the template. Same
  /// view lifetime.
  [[nodiscard]] Gen1MfView digitize_and_filter(const Gen1ConverterCapture& capture,
                                               const Gen1Transmitter& tx,
                                               const Gen1RxOptions& options);

 private:
  friend void test_hooks::fill_gen1_thread_buffers(float value);

  /// Fills every sample buffer the calling thread's gen-1 receive passes
  /// use, over its whole capacity, with \p value.
  static void fill_thread_buffers(float value);

  /// Conversion and matched filtering of \p blocks, whose gain-scaled
  /// samples sit packed in the thread's sampled arena.
  Gen1MfView convert_and_filter(std::span<const AdcWindow> blocks, const Gen1Transmitter& tx);

  /// Whether ADC \p block is non-empty and every analog input it reads,
  /// through the FIR and the lane interpolation, lies inside an
  /// \p n-sample capture.
  [[nodiscard]] bool interior(const LanePlan& plan, AdcWindow block,
                              std::size_t n) const noexcept;

  /// noise factor (color_noise()) under the lane plan \p plan.
  const Gen1NoiseFactor& factor_for(const LanePlan& plan, AdcWindow block, std::size_t n);

  /// The analog samples [first, last) of an \p n-sample capture that ADC
  /// \p block reads through the FIR, clamped to the capture.
  [[nodiscard]] std::pair<std::size_t, std::size_t> block_inputs(const LanePlan& plan,
                                                                 AdcWindow block,
                                                                 std::size_t n) const noexcept;

  /// The despreader: the data bits of \p result from the matched-filter
  /// outputs \p mf, at the timing result.acq holds (the genie's, or the
  /// acquisition's up to one PN period, which the SFD search resolves).
  void decide(const Gen1MfView& mf, const Gen1Transmitter& tx, const TxFrame& tx_reference,
              const Gen1RxOptions& options, Gen1RxResult& result) const;

  [[nodiscard]] Gen1AcqResult acquire_on_mf(std::span<const float> mf,
                                            const Gen1Transmitter& tx) const;

  Gen1Config config_;
  adc::SampleAndHold sampler_;
  adc::TimeInterleavedAdc adc_;
  std::vector<float> anti_alias_rev_f_;  ///< anti-alias taps, reversed, in float
  double anti_alias_energy_ = 0.0;       ///< sum(h^2) over those taps
  std::vector<float> ws_taps_f_;         ///< the pulse template in float
  RealVec lane_skews_s_;  ///< static per-lane skews, built once at construction

  /// Noise factors by block length (see color_noise).
  std::map<std::size_t, Gen1NoiseFactor> factors_;

  /// Every input decision_blocks() reads: blocks_ is its plan for
  /// blocks_key_.
  struct BlockPlanKey {
    std::size_t n = 0;
    double fs = 0.0;
    std::size_t taps = 0;             ///< tx.pulse_taps_adc().size()
    std::size_t preamble_frames = 0;  ///< tx.preamble_frames()
    std::size_t num_bits = 0;
    bool genie_timing = false;
    std::size_t genie_offset = 0;
    [[nodiscard]] bool operator==(const BlockPlanKey&) const = default;
  };
  std::optional<BlockPlanKey> blocks_key_;
  std::vector<AdcWindow> blocks_;

  // Bookkeeping for the current pass; the sample buffers every stage of
  // digitize_and_filter writes are per thread (see receiver_gen1.cpp).
  std::vector<Gen1MfView::Run> ws_runs_;
};

}  // namespace uwb::txrx
