#include "adc/quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace uwb::adc {

std::vector<int> Adc::convert_block(const RealVec& x) {
  std::vector<int> codes(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) codes[i] = convert(x[i]);
  return codes;
}

RealVec Adc::digitize(const RealVec& x) {
  RealVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = level_of(convert(x[i]));
  return out;
}

UniformQuantizer::UniformQuantizer(int bits, double full_scale)
    : bits_(bits), full_scale_(full_scale) {
  detail::require(bits >= 1 && bits <= 24, "UniformQuantizer: bits must be in [1,24]");
  detail::require(full_scale > 0.0, "UniformQuantizer: full scale must be positive");
  num_codes_ = 1 << bits;
  lsb_ = 2.0 * full_scale / num_codes_;
}

int UniformQuantizer::convert(double x) noexcept {
  const double idx = std::floor((x + full_scale_) / lsb_);
  return static_cast<int>(std::clamp(idx, 0.0, static_cast<double>(num_codes_ - 1)));
}

double UniformQuantizer::level_of(int code) const noexcept {
  const int c = std::clamp(code, 0, num_codes_ - 1);
  return -full_scale_ + (static_cast<double>(c) + 0.5) * lsb_;
}

double ideal_sqnr_db(int bits) { return 6.02 * bits + 1.76; }

}  // namespace uwb::adc
