#pragma once
/// \file pulse_train.h
/// \brief Assembles modulated pulse trains at complex baseband: PRF spacing,
///        pulses-per-bit repetition, per-pulse amplitude/position weights.
///
/// Modulation (uwb::phy) hands this module a per-pulse weight sequence; the
/// train builder places copies of the prototype pulse on the PRF grid. The
/// same machinery serves gen-1 (many pulses per bit, low data rate) and
/// gen-2 (one pulse per bit at 100 MHz PRF).

#include <cstddef>

#include "common/error.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::pulse {

/// Per-pulse placement: amplitude weight (BPSK/OOK/PAM) and an extra time
/// offset in seconds (PPM position shift).
struct PulseSlot {
  double amplitude = 1.0;
  double time_offset_s = 0.0;
};

/// Static configuration of a pulse train.
struct PulseTrainSpec {
  double prf_hz = 100e6;      ///< pulse repetition frequency
  int pulses_per_bit = 1;     ///< repetitions carrying one bit
  double sample_rate_hz = 2e9;
};

/// Builds a real baseband train: one prototype copy per slot on the PRF
/// grid. Output length covers all slots plus the pulse tail.
RealWaveform build_train(const RealWaveform& prototype, const std::vector<PulseSlot>& slots,
                         const PulseTrainSpec& spec);

/// Samples per PRF period at the spec's rate (must divide evenly; throws
/// otherwise so configurations stay sample-aligned).
std::size_t samples_per_frame(const PulseTrainSpec& spec);

}  // namespace uwb::pulse
