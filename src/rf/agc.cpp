#include "rf/agc.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

Agc::Agc(const AgcParams& params) : params_(params) {
  detail::require(params.target_rms > 0.0, "Agc: target rms must be positive");
  detail::require(params.max_gain_db > params.min_gain_db, "Agc: max gain must exceed min");
}

void Agc::one_shot(double* i, double* q, std::size_t n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += i[k] * i[k] + q[k] * q[k];
  const double r = n > 0 ? std::sqrt(acc / static_cast<double>(n)) : 0.0;
  const double wanted_db = (r > 0.0) ? amp_to_db(params_.target_rms / r) : params_.max_gain_db;
  gain_db_ = std::clamp(wanted_db, params_.min_gain_db, params_.max_gain_db);
  const double gain = db_to_amp(gain_db_);
  for (std::size_t k = 0; k < n; ++k) {
    i[k] *= gain;
    q[k] *= gain;
  }
}

}  // namespace uwb::rf
