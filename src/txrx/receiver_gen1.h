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

#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/aligned.h"
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

/// Receiver options per run.
struct Gen1RxOptions {
  bool genie_timing = false;    ///< skip acquisition, use genie_offset
  std::size_t genie_offset = 0; ///< known preamble start at the ADC rate
};

/// The gen-1 receiver.
class Gen1Receiver {
 public:
  /// \p rng draws the converter's static mismatch once (comparator offsets,
  /// lane gain/offset/skew).
  Gen1Receiver(const Gen1Config& config, Rng& rng);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }

  /// Full receive over the caller's float sample arena at rate \p fs:
  /// sample, convert, matched-filter, acquire, despread -- the whole chain
  /// in single precision.
  [[nodiscard]] Gen1RxResult receive(std::span<const float> rx, double fs,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, Rng& rng);

  /// Acquisition only (bench E2/E11): processes a capture containing at
  /// least one PN period past the search uncertainty.
  [[nodiscard]] Gen1AcqResult acquire(std::span<const float> rx, double fs,
                                      const Gen1Transmitter& tx, Rng& rng);

 private:
  /// Analog band-limiting + sampling + interleaved conversion + matched
  /// filtering, entirely in single precision. The returned span views
  /// ws_mf_, valid until the next call on this receiver.
  [[nodiscard]] std::span<const float> digitize_and_filter(const float* rx, std::size_t n,
                                                           double fs, const Gen1Transmitter& tx,
                                                           Rng& rng);

  [[nodiscard]] Gen1AcqResult acquire_on_mf(std::span<const float> mf,
                                            const Gen1Transmitter& tx) const;

  Gen1Config config_;
  adc::SampleAndHold sampler_;
  adc::TimeInterleavedAdc adc_;
  RealVec anti_alias_taps_;
  RealVec lane_skews_s_;  ///< static per-lane skews, built once at construction

  // Per-receiver sample arena: every stage of digitize_and_filter writes
  // into one of these 64-byte-aligned grow-only buffers, so steady-state
  // packet processing performs zero heap allocations. Single precision:
  // the modeled front end is a 4-bit converter behind an AGC, so float's
  // 24-bit mantissa is ~20 bits beyond the physics while doubling SIMD
  // width through the filter/sampler/converter/matched-filter chain.
  dsp::AlignedVec<float> ws_filtered_;
  dsp::AlignedVec<float> ws_sampled_;
  dsp::AlignedVec<float> ws_levels_;
  dsp::AlignedVec<float> ws_mf_;
  mutable dsp::AlignedVec<float> ws_acq_;  ///< stage-1 phase accumulators
};

}  // namespace uwb::txrx
