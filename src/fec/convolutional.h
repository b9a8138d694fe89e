#pragma once
/// \file convolutional.h
/// \brief Feed-forward convolutional encoder with configurable constraint
///        length and generator polynomials. Supplies the coded-link mode of
///        the transceivers and the trellis the Viterbi decoder works on.

#include <cstdint>

#include "common/types.h"

namespace uwb::fec {

/// Code definition: constraint length K and one generator per output bit.
/// Generators use the textbook convention: bit (K-1) of the generator taps
/// the newest input, bit 0 the oldest.
struct ConvCode {
  int constraint_length = 3;
  /// Default: the compact rate-1/2 K=3 code (7, 5 octal), cheap enough for
  /// a 2005-era UWB back end at full rate.
  std::vector<uint32_t> generators = {0b111, 0b101};

  [[nodiscard]] int rate_denominator() const noexcept {
    return static_cast<int>(generators.size());
  }
  [[nodiscard]] int memory() const noexcept { return constraint_length - 1; }
  [[nodiscard]] int num_states() const noexcept { return 1 << memory(); }
};

/// The industry-standard rate-1/2 K=7 code (171, 133 octal).
ConvCode k7_rate_half();

/// Encoder. encode() appends a zero tail so the decoder can terminate.
class ConvEncoder {
 public:
  explicit ConvEncoder(const ConvCode& code);

  [[nodiscard]] const ConvCode& code() const noexcept { return code_; }

  /// Encodes info bits, appending memory() zero-tail bits. Output length is
  /// (bits.size() + memory()) * generators.size().
  [[nodiscard]] BitVec encode(const BitVec& bits) const;

  /// Coded bits produced by one input bit from a given state (LSB-first
  /// packed into the returned word; used by the decoder to build branch
  /// tables).
  [[nodiscard]] uint32_t branch_output(int state, int input_bit) const noexcept;

  /// State reached from \p state on \p input_bit.
  [[nodiscard]] int next_state(int state, int input_bit) const noexcept;

 private:
  ConvCode code_;
  uint32_t reg_mask_;
};

}  // namespace uwb::fec
