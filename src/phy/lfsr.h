#pragma once
/// \file lfsr.h
/// \brief LFSR machinery: maximal-length (m-) sequences for preambles and
///        spreading.
///
/// The paper's back end acquires on a PN preamble; gen-1 spreads each bit
/// over many pulses whose polarities follow a PN sequence. Both need
/// deterministic LFSR sequences.

#include <cstdint>

#include "common/types.h"

namespace uwb::phy {

/// Right-shift Fibonacci LFSR over GF(2). The register holds the sequence
/// history with the output in bit 0; \p taps bit j taps the register bit
/// carrying polynomial term x^(degree-j), so the leading x^degree term is
/// always bit 0 (e.g. x^7 + x^6 + 1 -> 0b11). Use msequence_taps() for
/// known-primitive polynomials.
class Lfsr {
 public:
  /// \p degree in [2, 32]; \p taps must be non-zero; \p seed non-zero.
  Lfsr(int degree, uint32_t taps, uint32_t seed = 1);

  /// Advances one step, returning the output bit.
  uint8_t step() noexcept;

  /// Generates \p n bits.
  BitVec generate(std::size_t n);

  /// Current register state.
  [[nodiscard]] uint32_t state() const noexcept { return state_; }

  void set_state(uint32_t state) noexcept { state_ = state & mask_; }

  [[nodiscard]] int degree() const noexcept { return degree_; }

  /// Sequence period for a maximal-length configuration: 2^degree - 1.
  [[nodiscard]] std::size_t max_period() const noexcept {
    return (std::size_t{1} << degree_) - 1;
  }

 private:
  int degree_;
  uint32_t taps_;
  uint32_t mask_;
  uint32_t state_;
};

/// Standard maximal-length tap masks for degrees 3..15 (one primitive
/// polynomial per degree). Throws for unsupported degrees.
uint32_t msequence_taps(int degree);

/// Maximal-length sequence of the full period 2^degree - 1 bits.
BitVec msequence(int degree, uint32_t seed = 1);

/// Maps bits to antipodal chips: 0 -> +1, 1 -> -1.
std::vector<double> to_chips(const BitVec& bits);

}  // namespace uwb::phy
