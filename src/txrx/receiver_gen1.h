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
using AdcWindow = IndexRange;

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
};

namespace test_hooks {

/// Overwrites the calling thread's gen-1 sample buffers -- the capture
/// arena and every receive buffer, over their whole capacity -- with
/// \p value. A trial reads only what it wrote, so poisoning them (NaN)
/// must change no result. Tests only; defined with the capture arena in
/// link.cpp.
void fill_gen1_thread_buffers(float value);

}  // namespace test_hooks

/// The gen-1 receiver.
class Gen1Receiver {
 public:
  /// \p rng draws the converter's static mismatch once (comparator offsets,
  /// lane gain/offset/skew).
  Gen1Receiver(const Gen1Config& config, Rng& rng);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }

  /// ||h * g||^2 of the anti-alias FIR h (the float taps the filter runs)
  /// over a pulse kernel \p g, in double: the energy one pulse of unit
  /// amplitude lands with after the filter (Gen1AgcModel).
  [[nodiscard]] double filtered_energy(const RealVec& g) const;

  /// The rms \p agc expects of an \p n-sample capture after the FIR: the
  /// AGC gain is 0.25 over it.
  [[nodiscard]] double expected_rms(const Gen1AgcModel& agc, std::size_t n) const;

  /// Full receive over the caller's float sample arena at rate \p fs:
  /// sample, convert, matched-filter, acquire, despread -- the whole chain
  /// in single precision, digitizing only decision_windows().
  [[nodiscard]] Gen1RxResult receive(std::span<const float> rx, double fs,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, Rng& rng);

  /// The same receive digitizing \p windows. Any window set that covers
  /// decision_windows() gives the same bits; the single window [0, n) is
  /// the whole capture.
  [[nodiscard]] Gen1RxResult receive(std::span<const float> rx, double fs,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options,
                                     std::span<const AdcWindow> windows, Rng& rng);

  /// The ADC windows a receive of an \p n-sample capture reads. With genie
  /// timing the decision reads one matched-filter output per data pulse,
  /// so each window is that output's index widened by the pulse template;
  /// acquisition, non-genie timing, and a sampler whose instants are not a
  /// pure function of the index (aperture jitter) read the whole capture,
  /// the single window [0, n_adc). The span views the receiver's own
  /// buffer, valid until its next call.
  [[nodiscard]] std::span<const AdcWindow> decision_windows(std::size_t n, double fs,
                                                            const Gen1Transmitter& tx,
                                                            std::size_t num_bits,
                                                            const Gen1RxOptions& options);

  /// The analog samples of an \p n-sample capture that digitizing the ADC
  /// \p windows (decision_windows()) reads: each window's FIR outputs
  /// (LanePlan::input_span) widened by the FIR's support, merged and
  /// ascending. A capture needs to be synthesized only there. Windows that
  /// cover the whole capture -- acquisition, non-genie timing -- and a
  /// jittered sampler get the single span [0, n). The span views the
  /// receiver's own buffer, valid until its next call.
  [[nodiscard]] std::span<const IndexRange> input_spans(std::size_t n, double fs,
                                                        std::span<const AdcWindow> windows);

  /// Acquisition only (bench E2/E11): processes a capture containing at
  /// least one PN period past the search uncertainty, gain set by
  /// options.agc (the timing fields are not read).
  [[nodiscard]] Gen1AcqResult acquire(std::span<const float> rx, double fs,
                                      const Gen1Transmitter& tx,
                                      const Gen1RxOptions& options, Rng& rng);

  /// Analog band-limiting + sampling + interleaved conversion + matched
  /// filtering, entirely in single precision, over the ADC index
  /// \p windows (ascending by begin), with the AGC gain options.agc models.
  /// The anti-alias FIR computes only the outputs the windows sample, and
  /// the sampler, converter and matched filter run only inside the
  /// windows: each output is bit-identical to a pass over the whole
  /// capture, and reads only the samples input_spans() names. The view is
  /// valid until the next call on this receiver or, by any gen-1 receiver,
  /// on this thread.
  [[nodiscard]] Gen1MfView digitize_and_filter(std::span<const float> rx, double fs,
                                               const Gen1Transmitter& tx,
                                               std::span<const AdcWindow> windows,
                                               const Gen1RxOptions& options, Rng& rng);

 private:
  friend void test_hooks::fill_gen1_thread_buffers(float value);

  /// Fills every sample buffer the calling thread's gen-1 receive passes
  /// use, over its whole capacity, with \p value.
  static void fill_thread_buffers(float value);

  /// One digitized window: ADC samples [adc_begin, adc_end) at adc_offset
  /// of the sampled/level arenas, read from the FIR outputs
  /// [in_begin, in_end) kept at kept_offset.
  struct Window {
    std::size_t adc_begin = 0, adc_end = 0, adc_offset = 0;
    std::size_t in_begin = 0, in_end = 0, kept_offset = 0;
  };

  using LanePlan = adc::SampleAndHold::LanePlan;

  /// Clamps \p windows to the n_adc-sample stream, widens each to whole
  /// lane patterns and merges overlaps into ws_windows_; \p plan (null for
  /// a jittered sampler) maps each window to the FIR outputs it reads.
  /// Returns the number of ADC samples and of FIR outputs the windows hold.
  std::pair<std::size_t, std::size_t> plan_windows(std::span<const AdcWindow> windows,
                                                   std::size_t n, std::size_t n_adc,
                                                   const LanePlan* plan);

  [[nodiscard]] Gen1AcqResult acquire_on_mf(std::span<const float> mf,
                                            const Gen1Transmitter& tx) const;

  Gen1Config config_;
  adc::SampleAndHold sampler_;
  adc::TimeInterleavedAdc adc_;
  std::vector<float> anti_alias_rev_f_;  ///< anti-alias taps, reversed, in float
  double anti_alias_energy_ = 0.0;       ///< sum(h^2) over those taps
  std::vector<float> ws_taps_f_;         ///< the pulse template in float
  RealVec lane_skews_s_;  ///< static per-lane skews, built once at construction

  // Bookkeeping for the current pass; the sample buffers every stage of
  // digitize_and_filter writes are per thread (see receiver_gen1.cpp).
  std::vector<AdcWindow> ws_decision_;
  std::vector<IndexRange> ws_spans_;
  std::vector<Window> ws_windows_;
  std::vector<Gen1MfView::Run> ws_runs_;
};

}  // namespace uwb::txrx
