#pragma once
/// \file filter_design.h
/// \brief FIR tap design: the windowed-sinc lowpass (unit DC gain) and the
///        root-raised-cosine pulse-shaping prototype, plus the frequency
///        response the tests hold the designs against.

#include <cstddef>

#include "common/types.h"
#include "dsp/window.h"

namespace uwb::dsp {

/// Windowed-sinc lowpass. \p cutoff_hz is the -6 dB edge, \p fs the sample
/// rate, \p num_taps the filter length (odd recommended for a symmetric,
/// integer-group-delay filter).
RealVec design_lowpass(double cutoff_hz, double fs, std::size_t num_taps,
                       WindowType window = WindowType::kHamming);

/// Root-raised-cosine pulse-shaping taps. \p symbol_rate_hz = 1/T, \p beta
/// the roll-off in [0,1], \p span_symbols the one-sided span in symbols,
/// \p samples_per_symbol the oversampling. Normalized to unit energy so a
/// matched pair gives unity gain at the peak.
RealVec design_root_raised_cosine(double symbol_rate_hz, double beta, int span_symbols,
                                  int samples_per_symbol);

/// Frequency response H(f) of a FIR at a single frequency (for verification).
cplx fir_response_at(const RealVec& taps, double freq_hz, double fs);

/// Magnitude response |H(f)| in dB at a single frequency.
double fir_gain_db_at(const RealVec& taps, double freq_hz, double fs);

}  // namespace uwb::dsp
