#pragma once
/// \file quantizer.h
/// \brief Uniform mid-rise quantization -- the idealized core every ADC
///        model refines, and the abstract Adc interface they share.
///
/// Codes are integers in [0, 2^bits - 1]; levels are the reconstruction
/// values in volts. Full scale is symmetric: [-full_scale, +full_scale].

#include <cstdint>
#include <memory>

#include "common/types.h"

namespace uwb::adc {

/// Abstract sample converter: analog value in, reconstructed level out.
/// Implementations model specific architectures (flash, SAR, interleaved).
class Adc {
 public:
  virtual ~Adc() = default;

  [[nodiscard]] virtual int bits() const noexcept = 0;
  [[nodiscard]] virtual double full_scale() const noexcept = 0;

  /// Converts one sample to a code in [0, 2^bits - 1].
  [[nodiscard]] virtual int convert(double x) noexcept = 0;

  /// Reconstruction level of a code.
  [[nodiscard]] virtual double level_of(int code) const noexcept = 0;

  /// Converts a buffer to codes.
  [[nodiscard]] std::vector<int> convert_block(const RealVec& x);

  /// Converts a buffer straight to reconstruction levels.
  [[nodiscard]] RealVec digitize(const RealVec& x);

  /// Resets any internal state (lane counters etc.).
  virtual void reset() noexcept {}
};

/// Ideal uniform mid-rise quantizer.
class UniformQuantizer final : public Adc {
 public:
  UniformQuantizer(int bits, double full_scale = 1.0);

  [[nodiscard]] int bits() const noexcept override { return bits_; }
  [[nodiscard]] double full_scale() const noexcept override { return full_scale_; }
  [[nodiscard]] int convert(double x) noexcept override;
  [[nodiscard]] double level_of(int code) const noexcept override;

  /// Quantization step (LSB size).
  [[nodiscard]] double lsb() const noexcept { return lsb_; }

 private:
  int bits_;
  double full_scale_;
  int num_codes_;
  double lsb_;
};

/// Theoretical SQNR of an n-bit quantizer with a full-scale sine [dB].
double ideal_sqnr_db(int bits);

}  // namespace uwb::adc
