#pragma once
/// \file mixer.h
/// \brief Quadrature conversion between real passband and complex baseband:
///        the "direct conversion architecture" of the paper's title.
///
/// The receive side's classic direct-conversion impairments -- I/Q gain and
/// phase imbalance, per-rail DC offsets -- apply at complex baseband
/// (apply_iq_impairments); the upconverter synthesizes real passband for
/// the pulse figures, with the same impairments and LO leakage.

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::rf {

/// Direct-conversion impairments (all zero = ideal mixer).
struct IqImpairments {
  double gain_imbalance_db = 0.0;   ///< I vs Q amplitude mismatch
  double phase_imbalance_rad = 0.0; ///< Q LO phase error
  double dc_offset_i = 0.0;         ///< additive DC on I rail
  double dc_offset_q = 0.0;         ///< additive DC on Q rail
  double lo_leakage_db = -100.0;    ///< LO feedthrough relative to signal

  [[nodiscard]] bool ideal() const noexcept {
    return gain_imbalance_db == 0.0 && phase_imbalance_rad == 0.0 && dc_offset_i == 0.0 &&
           dc_offset_q == 0.0 && lo_leakage_db <= -99.0;
  }
};

/// Quadrature upconverter (complex baseband -> RF real passband).
class Upconverter {
 public:
  /// \p lo_freq_hz the carrier; input must already be at the RF sample rate.
  Upconverter(double lo_freq_hz, double fs, const IqImpairments& impairments = {});

  [[nodiscard]] double lo_frequency() const noexcept { return lo_freq_; }

  /// x_rf(t) = Re{x_bb(t)} cos(wt) - Im{x_bb(t)} sin(wt), with impairments.
  [[nodiscard]] RealWaveform process(const CplxWaveform& baseband) const;

 private:
  double lo_freq_;
  double fs_;
  IqImpairments imp_;
  double gain_i_, gain_q_;
};

/// Applies I/Q impairments directly to a complex baseband signal -- the
/// baseband-equivalent shortcut used by the BER simulations (avoids
/// synthesizing 21+ GS/s passband). Models the same gain/phase imbalance
/// and DC offsets as the passband path.
CplxWaveform apply_iq_impairments(const CplxWaveform& x, const IqImpairments& imp);

}  // namespace uwb::rf
