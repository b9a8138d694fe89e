#include "channel/interferer.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/types.h"

namespace uwb::channel {

void add_cw_interferer(double* re, double* im, std::size_t n, double fs,
                       double freq_offset_hz, double signal_power, double sir_db, Rng& rng) {
  double phase = rng.uniform(0.0, two_pi);
  detail::require(signal_power > 0.0, "add_cw_interferer: signal power must be positive");
  detail::require(std::abs(freq_offset_hz) < fs / 2.0,
                  "add_cw_interferer: frequency offset outside Nyquist band");
  const double amp = std::sqrt(signal_power / from_db(sir_db));
  const double step = two_pi * freq_offset_hz / fs;
  for (std::size_t k = 0; k < n; ++k) {
    const cplx z = std::polar(amp, phase);
    // The tone is summed onto zero first, so a -0.0 part lands as +0.0.
    re[k] += 0.0 + z.real();
    im[k] += 0.0 + z.imag();
    phase = wrap_phase(phase + step);
  }
}

}  // namespace uwb::channel
