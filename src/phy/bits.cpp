#include "phy/bits.h"

#include <algorithm>

#include "common/error.h"

namespace uwb::phy {

std::size_t hamming_distance(const BitVec& a, const BitVec& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t d = (a.size() > b.size() ? a.size() : b.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] != 0) != (b[i] != 0)) ++d;
  }
  return d;
}

BitVec uint_to_bits(uint64_t value, int width) {
  detail::require(width >= 0 && width <= 64, "uint_to_bits: width must be in [0,64]");
  BitVec bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<uint8_t>((value >> (width - 1 - i)) & 1u);
  }
  return bits;
}

uint64_t bits_to_uint(const BitVec& bits, std::size_t first, std::size_t count) {
  detail::require(count <= 64, "bits_to_uint: count must be <= 64");
  detail::require(first + count <= bits.size(), "bits_to_uint: range out of bounds");
  uint64_t v = 0;
  for (std::size_t i = 0; i < count; ++i) {
    v = (v << 1) | (bits[first + i] & 1u);
  }
  return v;
}

}  // namespace uwb::phy
