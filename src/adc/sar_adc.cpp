#include "adc/sar_adc.h"

#include <bit>
#include <cmath>

#include "common/error.h"

namespace uwb::adc {

SarAdc::SarAdc(const SarParams& params, Rng& rng)
    : params_(params), noise_rng_(rng.fork(0x5a7c0de)) {
  detail::require(params.bits >= 1 && params.bits <= 16, "SarAdc: bits must be in [1,16]");
  detail::require(params.full_scale > 0.0, "SarAdc: full scale must be positive");

  // Binary-weighted cap DAC over the 2*FS input range: MSB weight FS,
  // halving down to the LSB. Bit k (0 = MSB) is built from 2^(bits-1-k)
  // unit capacitors, so its relative mismatch shrinks as 1/sqrt(units).
  weights_.resize(static_cast<std::size_t>(params.bits));
  double nominal = params.full_scale;
  for (int k = 0; k < params.bits; ++k) {
    const double units = std::pow(2.0, params.bits - 1 - k);
    const double rel_sigma = params.cap_mismatch_sigma / std::sqrt(units);
    weights_[static_cast<std::size_t>(k)] = nominal * (1.0 + rng.gaussian(0.0, rel_sigma));
    nominal /= 2.0;
  }
}

int SarAdc::convert(double x) noexcept {
  // Successive approximation from the bottom of the range.
  double dac = -params_.full_scale;
  int code = 0;
  for (int k = 0; k < params_.bits; ++k) {
    const double trial = dac + weights_[static_cast<std::size_t>(k)];
    double decision_input = x;
    if (params_.comparator_noise > 0.0) {
      decision_input += noise_rng_.gaussian(0.0, params_.comparator_noise);
    }
    if (decision_input >= trial) {
      dac = trial;
      code |= 1 << (params_.bits - 1 - k);
    }
  }
  return code;
}

double SarAdc::level_of(int code) const noexcept {
  double v = -params_.full_scale;
  for (int k = 0; k < params_.bits; ++k) {
    if (code & (1 << (params_.bits - 1 - k))) {
      v += weights_[static_cast<std::size_t>(k)];
    }
  }
  // Center of the LSB bin.
  return v + weights_.back() / 2.0;
}

void SarAdc::build_tables() {
  // Node 1 is the MSB decision at the bottom of the range; node m's
  // children are 2m (comparator said below: DAC unchanged) and 2m + 1
  // (above: DAC takes the trial level), exactly convert()'s updates.
  const std::size_t codes = std::size_t{1} << params_.bits;
  RealVec dac(codes, 0.0);
  tree_.assign(codes, 0.0);
  dac[1] = -params_.full_scale;
  for (std::size_t node = 1; node < codes; ++node) {
    const auto depth = static_cast<std::size_t>(std::bit_width(node) - 1);
    tree_[node] = dac[node] + weights_[depth];
    if (2 * node < codes) {
      dac[2 * node] = dac[node];
      dac[2 * node + 1] = tree_[node];
    }
  }
  levels_.resize(codes);
  for (std::size_t code = 0; code < codes; ++code) {
    levels_[code] = level_of(static_cast<int>(code));
  }
}

void SarAdc::digitize_to(const double* x, std::size_t n, double* levels) {
  if (levels_.empty()) build_tables();
  const std::size_t codes = levels_.size();
  const double* tree = tree_.data();
  const double sigma = params_.comparator_noise;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t node = 1;
    if (sigma > 0.0) {
      while (node < codes) {
        const double decision_input = x[k] + noise_rng_.gaussian(0.0, sigma);
        node = 2 * node + (decision_input >= tree[node] ? 1 : 0);
      }
    } else {
      while (node < codes) node = 2 * node + (x[k] >= tree[node] ? 1 : 0);
    }
    levels[k] = levels_[node - codes];
  }
}

}  // namespace uwb::adc
