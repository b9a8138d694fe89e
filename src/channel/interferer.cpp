#include "channel/interferer.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::channel {

Interferer::Interferer(InterfererSpec spec) : spec_(spec) {
  detail::require(spec.power >= 0.0, "Interferer: power must be non-negative");
  detail::require(spec.mod_rate_hz > 0.0, "Interferer: mod rate must be positive");
}

CplxVec Interferer::generate(std::size_t n, double fs, Rng& rng) const {
  detail::require(std::abs(spec_.freq_offset_hz) < fs / 2.0,
                  "Interferer: frequency offset outside Nyquist band");
  CplxVec out(n);
  const double amp = std::sqrt(spec_.power);
  double phase = spec_.initial_phase_rad;
  double freq = spec_.freq_offset_hz;

  switch (spec_.kind) {
    case InterfererKind::kCw: {
      const double step = two_pi * freq / fs;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::polar(amp, phase);
        phase = wrap_phase(phase + step);
      }
      break;
    }
    case InterfererKind::kModulated: {
      const auto samples_per_symbol =
          std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(fs / spec_.mod_rate_hz)));
      const double step = two_pi * freq / fs;
      double symbol = rng.sign();
      for (std::size_t i = 0; i < n; ++i) {
        if (i % samples_per_symbol == 0) symbol = rng.sign();
        out[i] = std::polar(amp, phase) * symbol;
        phase = wrap_phase(phase + step);
      }
      break;
    }
    case InterfererKind::kSweptTone: {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::polar(amp, phase);
        phase = wrap_phase(phase + two_pi * freq / fs);
        freq += spec_.sweep_rate_hz_per_s / fs;
        // Reflect at the Nyquist edges to stay representable.
        if (std::abs(freq) >= 0.49 * fs) freq = -freq;
      }
      break;
    }
  }
  return out;
}

void Interferer::add_to(CplxWaveform& x, double signal_power, double sir_db, Rng& rng) const {
  detail::require(signal_power > 0.0, "Interferer::add_to: signal power must be positive");
  InterfererSpec scaled = spec_;
  scaled.power = signal_power / from_db(sir_db);
  const Interferer temp(scaled);
  const CplxVec i_samples = temp.generate(x.size(), x.sample_rate(), rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += i_samples[i];
}

void Interferer::add_to(CplxWaveform& x, Rng& rng) const {
  const CplxVec i_samples = generate(x.size(), x.sample_rate(), rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += i_samples[i];
}

void add_cw_interferer(CplxWaveform& x, double freq_offset_hz, double signal_power,
                       double sir_db, Rng& rng) {
  InterfererSpec spec;
  spec.kind = InterfererKind::kCw;
  spec.freq_offset_hz = freq_offset_hz;
  spec.initial_phase_rad = rng.uniform(0.0, two_pi);
  Interferer intf(spec);
  intf.add_to(x, signal_power, sir_db, rng);
}

void add_cw_interferer(double* re, double* im, std::size_t n, double fs,
                       double freq_offset_hz, double signal_power, double sir_db, Rng& rng) {
  CplxWaveform tone(n, fs);
  add_cw_interferer(tone, freq_offset_hz, signal_power, sir_db, rng);
  for (std::size_t k = 0; k < n; ++k) {
    re[k] += tone[k].real();
    im[k] += tone[k].imag();
  }
}

}  // namespace uwb::channel
