#include "fec/convolutional.h"

#include <bit>

#include "common/error.h"

namespace uwb::fec {

ConvCode k7_rate_half() {
  ConvCode code;
  code.constraint_length = 7;
  code.generators = {0171, 0133};  // octal, 7 taps each
  return code;
}

ConvEncoder::ConvEncoder(const ConvCode& code) : code_(code) {
  detail::require(code.constraint_length >= 2 && code.constraint_length <= 16,
                  "ConvEncoder: constraint length must be in [2,16]");
  detail::require(!code.generators.empty(), "ConvEncoder: need at least one generator");
  reg_mask_ = (1u << code.constraint_length) - 1u;
  for (uint32_t g : code.generators) {
    detail::require((g & reg_mask_) == g && g != 0,
                    "ConvEncoder: generator wider than constraint length or zero");
  }
}

uint32_t ConvEncoder::branch_output(int state, int input_bit) const noexcept {
  // Register = [newest input | state bits], newest in the MSB position.
  const uint32_t reg =
      (static_cast<uint32_t>(input_bit & 1) << code_.memory()) | static_cast<uint32_t>(state);
  uint32_t out = 0;
  for (std::size_t i = 0; i < code_.generators.size(); ++i) {
    const auto parity = static_cast<uint32_t>(std::popcount(reg & code_.generators[i]) & 1);
    out |= parity << i;
  }
  return out;
}

int ConvEncoder::next_state(int state, int input_bit) const noexcept {
  const uint32_t reg =
      (static_cast<uint32_t>(input_bit & 1) << code_.memory()) | static_cast<uint32_t>(state);
  return static_cast<int>(reg >> 1);
}

BitVec ConvEncoder::encode(const BitVec& bits) const {
  const int n_out = code_.rate_denominator();
  BitVec out;
  out.reserve((bits.size() + static_cast<std::size_t>(code_.memory())) *
              static_cast<std::size_t>(n_out));
  int state = 0;
  auto push = [&](int input_bit) {
    const uint32_t coded = branch_output(state, input_bit);
    for (int i = 0; i < n_out; ++i) out.push_back(static_cast<uint8_t>((coded >> i) & 1u));
    state = next_state(state, input_bit);
  };
  for (auto b : bits) push(b & 1);
  for (int i = 0; i < code_.memory(); ++i) push(0);  // zero tail -> state 0
  return out;
}

}  // namespace uwb::fec
