#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace uwb::sim {

double BerCounter::ci95_halfwidth() const noexcept {
  if (bits_ == 0) return 0.0;
  const double n = static_cast<double>(bits_);
  const double p = ber();
  const double z = 1.96;
  // Wilson: center shifts slightly; report the half-width around p.
  const double denom = 1.0 + z * z / n;
  const double half = (z / denom) * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
  return half;
}

double MetricStats::variance() const noexcept {
  if (count < 2) return 0.0;
  const double n = static_cast<double>(count);
  const double centered = sum_sq - sum * sum / n;
  return std::max(0.0, centered / (n - 1.0));
}

MetricStats& MetricSet::entry(const std::string& name) {
  for (auto& [key, stats] : entries_) {
    if (key == name) return stats;
  }
  entries_.emplace_back(name, MetricStats{});
  return entries_.back().second;
}

void MetricSet::add(const std::string& name, double value) { entry(name).add(value); }

const MetricStats* MetricSet::find(const std::string& name) const noexcept {
  for (const auto& [key, stats] : entries_) {
    if (key == name) return &stats;
  }
  return nullptr;
}

}  // namespace uwb::sim
