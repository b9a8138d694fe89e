#pragma once
/// \file awgn.h
/// \brief Additive white Gaussian noise with the library's discrete-domain
///        Eb/N0 convention.
///
/// Convention (documented once, used everywhere): energies are discrete
/// sums, Eb = sum |x[n]|^2 over one bit's samples. Complex noise has total
/// per-sample variance N0 (N0/2 per rail); real noise has per-sample
/// variance N0/2. A unit-energy matched filter then sees noise variance
/// N0/2 on its decision rail and BER_BPSK = Q(sqrt(2 Eb/N0)), matching the
/// textbook curves the benches compare against.

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::channel {

/// Adds complex AWGN with total per-sample variance \p n0 in place.
void add_awgn(CplxVec& x, double n0, Rng& rng);

/// Adds complex AWGN with total per-sample variance \p n0 to split I/Q
/// rails of \p n samples in place: the same draws, in the same order, as
/// the CplxVec overload on the interleaved samples.
void add_awgn(double* re, double* im, std::size_t n, double n0, Rng& rng);

/// Adds real AWGN with per-sample variance n0/2 in place.
void add_awgn(RealVec& x, double n0, Rng& rng);

/// Single-precision AWGN over a raw buffer -- the gen-1 float sample arena's
/// noise path. Runs a float ziggurat on a xoshiro256++ stream seeded by one
/// draw from \p rng's engine, so each trial's noise stays a pure function of
/// its forked seed (the determinism contract); realizations differ from the
/// double overload's at the sampler level, not just in rounding.
void add_awgn(float* x, std::size_t n, double n0, Rng& rng);

/// Waveform overloads.
void add_awgn(CplxWaveform& x, double n0, Rng& rng);
void add_awgn(RealWaveform& x, double n0, Rng& rng);

/// N0 that realizes \p ebn0_db for a signal with discrete energy-per-bit
/// \p eb (sum |x|^2 per bit).
double n0_for_ebn0(double eb, double ebn0_db);

/// Discrete energy per bit of a waveform carrying \p num_bits bits.
double energy_per_bit(const CplxWaveform& x, std::size_t num_bits);
double energy_per_bit(const RealWaveform& x, std::size_t num_bits);

}  // namespace uwb::channel
