#pragma once
/// \file cir.h
/// \brief Channel impulse response: a tapped delay line with complex gains.
///        The object the paper's back end estimates ("channel impulse
///        response ... estimated with a precision of up to four bits") and
///        the RAKE / Viterbi demodulator consume.

#include <cstddef>

#include "common/types.h"

namespace uwb::channel {

/// One multipath component.
struct CirTap {
  double delay_s = 0.0;
  cplx gain{1.0, 0.0};

  [[nodiscard]] bool operator==(const CirTap&) const = default;
};

/// A multipath channel impulse response at complex baseband.
class Cir {
 public:
  Cir() = default;
  explicit Cir(std::vector<CirTap> taps);

  [[nodiscard]] const std::vector<CirTap>& taps() const noexcept { return taps_; }
  [[nodiscard]] std::size_t num_taps() const noexcept { return taps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return taps_.empty(); }

  /// Total energy sum |g_k|^2.
  [[nodiscard]] double total_energy() const noexcept;

  /// Energy-weighted mean excess delay.
  [[nodiscard]] double mean_excess_delay() const noexcept;

  /// RMS delay spread (the paper quotes ~20 ns for the target channels).
  [[nodiscard]] double rms_delay_spread() const noexcept;

  /// Largest tap delay.
  [[nodiscard]] double max_delay() const noexcept;

  /// Scales all gains so total_energy() == 1 (lossless-channel convention
  /// for BER experiments; path loss handled separately).
  Cir& normalize_energy();

  /// Keeps only the \p count strongest taps (selective-RAKE style view).
  [[nodiscard]] Cir strongest(std::size_t count) const;

  /// Fraction of total energy captured by the \p count strongest taps.
  [[nodiscard]] double energy_capture(std::size_t count) const;

  /// Discretizes to a sample-spaced FIR at \p fs: taps accumulate into the
  /// nearest sample bin. Length covers max_delay() (at least one tap).
  [[nodiscard]] CplxVec sampled(double fs) const;

 private:
  std::vector<CirTap> taps_;
};

/// The ideal single-tap channel (for AWGN-only reference runs).
Cir identity_cir();

}  // namespace uwb::channel
