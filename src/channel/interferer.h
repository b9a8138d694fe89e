#pragma once
/// \file interferer.h
/// \brief Narrowband interferers -- the jamming scenario behind the paper's
///        "4-bit ADC in a narrowband interferer regime" result and the
///        digital spectral monitor + RF notch chain.

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::channel {

/// Interferer flavors.
enum class InterfererKind {
  kCw,          ///< pure tone (e.g. an 802.11a carrier leaking in-band)
  kModulated,   ///< BPSK-modulated narrowband carrier
  kSweptTone,   ///< tone with a slow linear frequency sweep
};

/// Description of one narrowband interferer at complex baseband.
struct InterfererSpec {
  InterfererKind kind = InterfererKind::kCw;
  double freq_offset_hz = 80e6;   ///< offset from the UWB channel center
  double power = 1.0;             ///< mean power (|amplitude|^2)
  double mod_rate_hz = 1e6;       ///< symbol rate for kModulated
  double sweep_rate_hz_per_s = 0.0;  ///< for kSweptTone
  double initial_phase_rad = 0.0;
};

/// Generates interference samples and injects them into received signals.
class Interferer {
 public:
  explicit Interferer(InterfererSpec spec);

  [[nodiscard]] const InterfererSpec& spec() const noexcept { return spec_; }

  /// Generates \p n samples at \p fs.
  [[nodiscard]] CplxVec generate(std::size_t n, double fs, Rng& rng) const;

  /// Adds interference to \p x with power set so the signal-to-interference
  /// ratio is \p sir_db relative to \p signal_power.
  void add_to(CplxWaveform& x, double signal_power, double sir_db, Rng& rng) const;

  /// Adds interference at the spec's absolute power.
  void add_to(CplxWaveform& x, Rng& rng) const;

 private:
  InterfererSpec spec_;
};

/// Convenience: CW interferer at \p freq_offset_hz whose power makes the
/// SIR equal \p sir_db against \p signal_power.
void add_cw_interferer(CplxWaveform& x, double freq_offset_hz, double signal_power,
                       double sir_db, Rng& rng);

/// The same tone (same draws) added to split I/Q rails of \p n samples at
/// sample rate \p fs.
void add_cw_interferer(double* re, double* im, std::size_t n, double fs,
                       double freq_offset_hz, double signal_power, double sir_db, Rng& rng);

}  // namespace uwb::channel
