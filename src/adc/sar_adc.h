#pragma once
/// \file sar_adc.h
/// \brief Successive-approximation-register ADC with capacitor-DAC
///        mismatch -- the paper's gen-2 converters ("two 5-bit successive
///        approximation register ADCs", Fig. 3).

#include "adc/quantizer.h"
#include "common/rng.h"

namespace uwb::adc {

/// SAR parameters.
struct SarParams {
  int bits = 5;
  double full_scale = 1.0;
  double cap_mismatch_sigma = 0.0;  ///< per-cap relative mismatch stddev
  double comparator_noise = 0.0;    ///< rms comparator input noise [V]
};

/// Binary-search conversion against a binary-weighted capacitor DAC whose
/// weights carry static random mismatch (drawn once, like a real part).
class SarAdc final : public Adc {
 public:
  SarAdc(const SarParams& params, Rng& rng);

  [[nodiscard]] int bits() const noexcept override { return params_.bits; }
  [[nodiscard]] double full_scale() const noexcept override { return params_.full_scale; }

  /// Runs the \p bits-step successive approximation (with comparator noise
  /// drawn per decision when configured).
  [[nodiscard]] int convert(double x) noexcept override;

  /// Reconstruction using the *actual* (mismatched) weights -- a SAR's code
  /// maps back through the same DAC, so INL follows the mismatch.
  [[nodiscard]] double level_of(int code) const noexcept override;

  /// The mismatched bit weights, MSB first [V].
  [[nodiscard]] const RealVec& weights() const noexcept { return weights_; }

  /// Block conversion straight to reconstruction levels:
  /// levels[k] = level_of(convert(x[k])), with the same decisions and the
  /// same comparator-noise draws in the same order. Each sample walks a
  /// precomputed decision tree (every node's trial level summed exactly as
  /// convert() sums it along that path) and reads a level table, both built
  /// on first use.
  void digitize_to(const double* x, std::size_t n, double* levels);

 private:
  void build_tables();

  SarParams params_;
  RealVec weights_;        ///< weight of each bit decision, MSB first
  mutable Rng noise_rng_;  ///< comparator noise stream
  RealVec tree_;           ///< trial level per tree node, heap order from 1
  RealVec levels_;         ///< level_of(code) per code
};

}  // namespace uwb::adc
