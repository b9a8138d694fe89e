#include "rf/agc.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

Agc::Agc(const AgcParams& params) : params_(params) {
  detail::require(params.target_rms > 0.0, "Agc: target rms must be positive");
  detail::require(params.max_gain_db > params.min_gain_db, "Agc: max gain must exceed min");
  detail::require(params.window > 0, "Agc: window must be positive");
}

namespace {

template <typename T>
double rms_of(const std::vector<T>& x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& v : x) {
    if constexpr (std::is_same_v<T, cplx>) {
      acc += std::norm(v);
    } else {
      acc += v * v;
    }
  }
  return std::sqrt(acc / static_cast<double>(x.size()));
}

}  // namespace

double Agc::set_gain_for_rms(double r) {
  const double wanted_db = (r > 0.0) ? amp_to_db(params_.target_rms / r) : params_.max_gain_db;
  gain_db_ = std::clamp(wanted_db, params_.min_gain_db, params_.max_gain_db);
  return db_to_amp(gain_db_);
}

CplxWaveform Agc::one_shot(const CplxWaveform& x) {
  CplxWaveform out = x;
  out.scale(set_gain_for_rms(rms_of(x.samples())));
  return out;
}

RealWaveform Agc::one_shot(const RealWaveform& x) {
  RealWaveform out = x;
  out.scale(set_gain_for_rms(rms_of(x.samples())));
  return out;
}

void Agc::one_shot(double* i, double* q, std::size_t n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += i[k] * i[k] + q[k] * q[k];
  const double gain =
      set_gain_for_rms(n > 0 ? std::sqrt(acc / static_cast<double>(n)) : 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    i[k] *= gain;
    q[k] *= gain;
  }
}

CplxWaveform Agc::track(const CplxWaveform& x) {
  CplxWaveform out(x.size(), x.sample_rate());
  double gain = db_to_amp(gain_db_);
  std::size_t i = 0;
  while (i < x.size()) {
    const std::size_t end = std::min(i + params_.window, x.size());
    double acc = 0.0;
    for (std::size_t k = i; k < end; ++k) {
      out[k] = x[k] * gain;
      acc += std::norm(out[k]);
    }
    const double r = std::sqrt(acc / static_cast<double>(end - i));
    // Bang-bang loop: step gain toward the target.
    if (r > params_.target_rms * 1.05) {
      gain_db_ -= params_.step_db;
    } else if (r < params_.target_rms * 0.95) {
      gain_db_ += params_.step_db;
    }
    gain_db_ = std::clamp(gain_db_, params_.min_gain_db, params_.max_gain_db);
    gain = db_to_amp(gain_db_);
    i = end;
  }
  return out;
}

}  // namespace uwb::rf
