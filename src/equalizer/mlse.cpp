#include "equalizer/mlse.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace uwb::equalizer {

MlseDemodulator::MlseDemodulator(const MlseConfig& config, std::vector<cplx> g)
    : config_(config), g_(std::move(g)) {
  detail::require(config.memory >= 1 && config.memory <= 12,
                  "MlseDemodulator: memory must be in [1,12]");
  detail::require(g_.size() == static_cast<std::size_t>(config.memory) + 1,
                  "MlseDemodulator: channel must have memory+1 taps");
}

BitVec MlseDemodulator::demodulate(const CplxVec& observations) const {
  const int ns = num_states();
  const std::size_t n = observations.size();
  constexpr double inf = std::numeric_limits<double>::infinity();

  // Precompute expected branch observations for every (state, input).
  // State bits: LSB is the most recent previous symbol; bit(l-1) = a_{m-l}.
  std::vector<cplx> expected(static_cast<std::size_t>(ns) * 2);
  for (int s = 0; s < ns; ++s) {
    for (int b = 0; b <= 1; ++b) {
      const double a0 = b ? -1.0 : 1.0;
      cplx e = g_[0] * a0;
      for (int l = 1; l <= config_.memory; ++l) {
        const double al = ((s >> (l - 1)) & 1) ? -1.0 : 1.0;
        e += g_[static_cast<std::size_t>(l)] * al;
      }
      expected[static_cast<std::size_t>(s) * 2 + static_cast<std::size_t>(b)] = e;
    }
  }

  std::vector<double> metric(static_cast<std::size_t>(ns), 0.0);
  std::vector<double> next_metric(static_cast<std::size_t>(ns));
  struct Survivor {
    int16_t prev_state;
    int8_t input;
  };
  std::vector<std::vector<Survivor>> survivors(
      n, std::vector<Survivor>(static_cast<std::size_t>(ns), {0, 0}));

  const int mask = ns - 1;
  for (std::size_t t = 0; t < n; ++t) {
    for (int s = 0; s < ns; ++s) next_metric[static_cast<std::size_t>(s)] = inf;
    for (int s = 0; s < ns; ++s) {
      const double pm = metric[static_cast<std::size_t>(s)];
      if (pm == inf) continue;
      for (int b = 0; b <= 1; ++b) {
        const cplx diff =
            observations[t] - expected[static_cast<std::size_t>(s) * 2 + static_cast<std::size_t>(b)];
        const double m = pm + std::norm(diff);
        const int ns_idx = ((s << 1) | b) & mask;
        if (m < next_metric[static_cast<std::size_t>(ns_idx)]) {
          next_metric[static_cast<std::size_t>(ns_idx)] = m;
          survivors[t][static_cast<std::size_t>(ns_idx)] = {static_cast<int16_t>(s),
                                                            static_cast<int8_t>(b)};
        }
      }
    }
    metric.swap(next_metric);
  }

  // Trace back from the best final state.
  int best_state = 0;
  double best_metric = inf;
  for (int s = 0; s < ns; ++s) {
    if (metric[static_cast<std::size_t>(s)] < best_metric) {
      best_metric = metric[static_cast<std::size_t>(s)];
      best_state = s;
    }
  }
  BitVec bits(n);
  int state = best_state;
  for (std::size_t t = n; t-- > 0;) {
    const Survivor& sv = survivors[t][static_cast<std::size_t>(state)];
    bits[t] = static_cast<uint8_t>(sv.input);
    state = sv.prev_state;
  }
  return bits;
}

}  // namespace uwb::equalizer
