#pragma once
/// \file pulse_train.h
/// \brief The PRF grid of a pulse train: the transmitters place one copy of
///        the prototype pulse per slot, samples_per_frame() apart. The same
///        grid serves gen-1 (many pulses per bit, low data rate) and gen-2
///        (one pulse per bit at 100 MHz PRF).

#include <cstddef>

#include "common/error.h"
#include "common/types.h"

namespace uwb::pulse {

/// Static configuration of a pulse train.
struct PulseTrainSpec {
  double prf_hz = 100e6;      ///< pulse repetition frequency
  int pulses_per_bit = 1;     ///< repetitions carrying one bit
  double sample_rate_hz = 2e9;
};

/// Samples per PRF period at the spec's rate (must divide evenly; throws
/// otherwise so configurations stay sample-aligned).
std::size_t samples_per_frame(const PulseTrainSpec& spec);

}  // namespace uwb::pulse
