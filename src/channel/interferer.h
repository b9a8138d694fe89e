#pragma once
/// \file interferer.h
/// \brief Narrowband interference -- the jamming scenario behind the paper's
///        "4-bit ADC in a narrowband interferer regime" result and the
///        digital spectral monitor + RF notch chain.

#include <cstddef>

#include "common/rng.h"

namespace uwb::channel {

/// Adds a CW tone (e.g. an 802.11a carrier leaking in-band) at baseband
/// offset \p freq_offset_hz to split I/Q rails of \p n samples at sample
/// rate \p fs. Its power makes the signal-to-interference ratio equal
/// \p sir_db against \p signal_power (> 0); its initial phase is one
/// uniform draw from \p rng. |freq_offset_hz| must be below fs / 2.
void add_cw_interferer(double* re, double* im, std::size_t n, double fs,
                       double freq_offset_hz, double signal_power, double sir_db, Rng& rng);

}  // namespace uwb::channel
