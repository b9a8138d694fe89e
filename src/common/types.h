#pragma once
/// \file types.h
/// \brief Fundamental scalar types and physical-unit helpers shared by every
///        subsystem of the UWB transceiver library.
///
/// All signal processing is done in double precision. Complex baseband
/// samples use std::complex<double>. Frequencies are carried in hertz,
/// times in seconds, powers in watts (linear) or dBm where noted -- helper
/// constants below make call sites read like the paper ("5 * GHz").

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uwb {

/// Complex baseband sample.
using cplx = std::complex<double>;

/// Real-valued sample buffer (passband or one rail of I/Q).
using RealVec = std::vector<double>;

/// Complex-valued sample buffer (analytic / baseband signal).
using CplxVec = std::vector<cplx>;

/// Hard bit (0/1) buffer.
using BitVec = std::vector<uint8_t>;

// --- Unit multipliers -------------------------------------------------------
// Usage: double fc = 5 * GHz;  double prf = 100 * MHz;  double tau = 20 * ns;

inline constexpr double Hz = 1.0;
inline constexpr double kHz = 1e3;
inline constexpr double MHz = 1e6;
inline constexpr double GHz = 1e9;

inline constexpr double s = 1.0;
inline constexpr double ms = 1e-3;
inline constexpr double us = 1e-6;
inline constexpr double ns = 1e-9;
inline constexpr double ps = 1e-12;

inline constexpr double mW = 1e-3;
inline constexpr double uW = 1e-6;

/// Boltzmann constant [J/K]; used for thermal-noise floors (kTB).
inline constexpr double k_boltzmann = 1.380649e-23;

/// Reference temperature for noise-figure definitions [K].
inline constexpr double T0_kelvin = 290.0;

/// Thermal noise density at T0, in dBm/Hz (-173.975...).
inline constexpr double kT_dBm_per_Hz = -173.975;

// --- Band constants from the paper ------------------------------------------

/// FCC UWB band lower edge (3.1 GHz).
inline constexpr double fcc_band_low_hz = 3.1e9;

/// FCC UWB band upper edge (10.6 GHz).
inline constexpr double fcc_band_high_hz = 10.6e9;

/// FCC EIRP limit for UWB communication devices [dBm/MHz].
inline constexpr double fcc_eirp_limit_dbm_per_mhz = -41.3;

/// Pulse bandwidth used by both generations of the paper's system [Hz].
inline constexpr double pulse_bandwidth_hz = 500e6;

/// Number of sub-band channels in the gen-2 band plan.
inline constexpr int num_band_channels = 14;

}  // namespace uwb
