#pragma once
/// \file bits.h
/// \brief Bit-vector utilities: comparison and integer fields.

#include <cstdint>
#include <cstddef>
#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace uwb::phy {

/// Number of differing positions; compares the first min(a,b) bits and
/// counts the length difference as errors.
std::size_t hamming_distance(const BitVec& a, const BitVec& b);

/// Converts an unsigned value to \p width bits, MSB first.
BitVec uint_to_bits(uint64_t value, int width);

/// Parses up to 64 bits (MSB first) back into an unsigned value.
uint64_t bits_to_uint(const BitVec& bits, std::size_t first, std::size_t count);

}  // namespace uwb::phy
