#include "phy/lfsr.h"

#include "common/error.h"

namespace uwb::phy {

Lfsr::Lfsr(int degree, uint32_t taps, uint32_t seed) : degree_(degree), taps_(taps) {
  detail::require(degree >= 2 && degree <= 32, "Lfsr: degree must be in [2,32]");
  mask_ = (degree == 32) ? 0xFFFFFFFFu : ((1u << degree) - 1u);
  detail::require((taps & mask_) != 0, "Lfsr: taps must be non-zero");
  detail::require((seed & mask_) != 0, "Lfsr: seed must be non-zero");
  taps_ &= mask_;
  state_ = seed & mask_;
}

uint8_t Lfsr::step() noexcept {
  const auto out = static_cast<uint8_t>(state_ & 1u);
  // XOR of tapped stages becomes the new MSB.
  uint32_t fb = state_ & taps_;
  fb ^= fb >> 16;
  fb ^= fb >> 8;
  fb ^= fb >> 4;
  fb ^= fb >> 2;
  fb ^= fb >> 1;
  fb &= 1u;
  state_ = (state_ >> 1) | (fb << (degree_ - 1));
  return out;
}

BitVec Lfsr::generate(std::size_t n) {
  BitVec out(n);
  for (auto& b : out) b = step();
  return out;
}

uint32_t msequence_taps(int degree) {
  // Primitive polynomials as tap masks for the right-shift Fibonacci LFSR
  // implemented in Lfsr::step(): bit j of the mask taps the register bit
  // holding x^(degree - j), so the x^degree term is always bit 0. Standard
  // m-sequence polynomial tables.
  switch (degree) {
    case 3:  return 0b11;                 // x^3 + x^2 + 1
    case 4:  return 0b11;                 // x^4 + x^3 + 1
    case 5:  return 0b101;                // x^5 + x^3 + 1
    case 6:  return 0b11;                 // x^6 + x^5 + 1
    case 7:  return 0b11;                 // x^7 + x^6 + 1
    case 8:  return 0b11101;              // x^8 + x^6 + x^5 + x^4 + 1
    case 9:  return 0b10001;              // x^9 + x^5 + 1
    case 10: return 0b1001;               // x^10 + x^7 + 1
    case 11: return 0b101;                // x^11 + x^9 + 1
    case 12: return 0b100000111;          // x^12 + x^11 + x^10 + x^4 + 1
    case 13: return 0b100111;             // x^13 + x^12 + x^11 + x^8 + 1
    case 14: return 0b1000000000111;      // x^14 + x^13 + x^12 + x^2 + 1
    case 15: return 0b11;                 // x^15 + x^14 + 1
    default:
      throw InvalidArgument("msequence_taps: unsupported degree (3..15)");
  }
}

BitVec msequence(int degree, uint32_t seed) {
  Lfsr lfsr(degree, msequence_taps(degree), seed);
  return lfsr.generate(lfsr.max_period());
}

std::vector<double> to_chips(const BitVec& bits) {
  std::vector<double> chips(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) chips[i] = bits[i] ? -1.0 : 1.0;
  return chips;
}

}  // namespace uwb::phy
