#pragma once
/// \file modulation.h
/// \brief Pulse modulation schemes the discrete prototype compares (paper
///        Section 3 / Fig. 4): antipodal BPSK, OOK, binary PPM and 4-PAM.
///
/// A Modulator maps bits to per-bit pulse weights/time-offsets (the gen-2
/// transmitter's pulse slots); a matching demapper converts correlator
/// soft outputs back to bits. Unit average energy per bit across schemes so
/// Eb/N0 comparisons are fair.

#include <memory>
#include <string>

#include "common/types.h"

namespace uwb::phy {

/// Scheme selector.
enum class Modulation {
  kBpsk,  ///< antipodal +/-1
  kOok,   ///< on-off, {0, sqrt(2)} for unit average energy
  kPpm,   ///< binary PPM: position 0 or delta
  kPam4,  ///< 4-level PAM, Gray mapped, 2 bits/symbol
};

/// Human-readable scheme name.
std::string to_string(Modulation m);

/// Per-symbol mapping produced by a modulator.
struct SymbolMapping {
  std::vector<double> weights;        ///< per-symbol amplitude
  std::vector<double> time_offsets_s; ///< per-symbol extra delay (PPM)
  int bits_per_symbol = 1;
};

/// Abstract mapper/demapper pair.
class Modulator {
 public:
  virtual ~Modulator() = default;

  /// Scheme implemented by this modulator.
  [[nodiscard]] virtual Modulation scheme() const noexcept = 0;

  [[nodiscard]] virtual int bits_per_symbol() const noexcept = 0;

  /// Maps bits to symbol weights/offsets. Bit count must be a multiple of
  /// bits_per_symbol().
  [[nodiscard]] virtual SymbolMapping map(const BitVec& bits) const = 0;

  /// Recovers bits from per-symbol soft correlator outputs. For PPM the
  /// receiver supplies one correlation per position: soft[2k] (position 0)
  /// and soft[2k+1] (position delta).
  [[nodiscard]] virtual BitVec demap(const std::vector<double>& soft) const = 0;

  /// Number of correlator outputs the demapper expects per symbol (1 for
  /// amplitude schemes, 2 for binary PPM).
  [[nodiscard]] virtual int correlations_per_symbol() const noexcept { return 1; }
};

/// PPM position offset used by the binary-PPM modulator, as a fraction of
/// the PRF frame (offset = fraction / prf).
inline constexpr double ppm_frame_fraction = 0.5;

/// Factory. \p prf_hz is needed by PPM to compute the position offset.
std::unique_ptr<Modulator> make_modulator(Modulation scheme, double prf_hz);

}  // namespace uwb::phy
