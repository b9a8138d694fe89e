#include "estimation/snr_estimator.h"

#include <cmath>

#include "common/error.h"

namespace uwb::estimation {

double snr_data_aided(const std::vector<double>& soft_known_sign) {
  detail::require(soft_known_sign.size() >= 2, "snr_data_aided: need at least 2 samples");
  // With known symbol signs the soft values are all "+1-like": mean is the
  // signal amplitude, spread is noise.
  double mean = 0.0;
  for (double v : soft_known_sign) mean += v;
  mean /= static_cast<double>(soft_known_sign.size());
  double var = 0.0;
  for (double v : soft_known_sign) var += (v - mean) * (v - mean);
  var /= static_cast<double>(soft_known_sign.size() - 1);
  if (var <= 0.0) return 1e12;
  return (mean * mean) / var;
}

}  // namespace uwb::estimation
