#pragma once
/// \file math_utils.h
/// \brief Small numeric helpers: dB conversions, Q-function, sinc, power
///        measures, and alignment utilities used across the library.

#include <cmath>
#include <cstddef>
#include <numbers>

#include "common/types.h"

namespace uwb {

inline constexpr double pi = std::numbers::pi;
inline constexpr double two_pi = 2.0 * std::numbers::pi;

// --- dB conversions ----------------------------------------------------------

/// Power ratio -> dB.
inline double to_db(double power_ratio) { return 10.0 * std::log10(power_ratio); }

/// dB -> power ratio.
inline double from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Amplitude ratio -> dB.
inline double amp_to_db(double amp_ratio) { return 20.0 * std::log10(amp_ratio); }

/// dB -> amplitude ratio.
inline double db_to_amp(double db) { return std::pow(10.0, db / 20.0); }

/// Watts -> dBm.
inline double watts_to_dbm(double watts) { return 10.0 * std::log10(watts / 1e-3); }

/// dBm -> watts.
inline double dbm_to_watts(double dbm) { return 1e-3 * std::pow(10.0, dbm / 10.0); }

// --- Special functions --------------------------------------------------------

/// Gaussian tail probability Q(x) = P(N(0,1) > x).
inline double q_function(double x) { return 0.5 * std::erfc(x / std::numbers::sqrt2); }

/// Inverse Q-function via bisection (accurate to ~1e-12 over (0, 0.5)).
double q_function_inv(double p);

/// Normalized sinc: sin(pi x)/(pi x), sinc(0) = 1.
inline double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = pi * x;
  return std::sin(px) / px;
}

/// Theoretical BER of coherent antipodal (BPSK) signaling over AWGN at the
/// given Eb/N0 (linear). The reference curve for every link bench.
inline double bpsk_awgn_ber(double ebn0_linear) {
  return q_function(std::sqrt(2.0 * ebn0_linear));
}

/// Theoretical BER of orthogonal binary PPM (non-antipodal, coherent).
inline double ppm_awgn_ber(double ebn0_linear) {
  return q_function(std::sqrt(ebn0_linear));
}

/// Theoretical BER of OOK with optimal threshold, coherent detection and an
/// average-energy-per-bit constraint: same Q(sqrt(Eb/N0)) as orthogonal PPM.
inline double ook_awgn_ber(double ebn0_linear) {
  return q_function(std::sqrt(ebn0_linear));
}

/// Theoretical BER of Gray-coded 4-PAM over AWGN at the given Eb/N0 (linear).
inline double pam4_awgn_ber(double ebn0_linear) {
  return 0.75 * q_function(std::sqrt(0.8 * ebn0_linear));
}

// --- Vector measures ----------------------------------------------------------

/// Total energy (sum |x|^2) of a real signal.
double energy(const RealVec& x);

/// Peak absolute value of a real signal.
double peak_abs(const RealVec& x);

// --- Misc ----------------------------------------------------------------------

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (n >= 1).
inline bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Wraps a phase to (-pi, pi].
double wrap_phase(double phi);

/// Linear interpolation helper.
inline double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Integer ceil division for non-negative arguments.
inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace uwb
