#include "channel/cir.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::channel {

Cir::Cir(std::vector<CirTap> taps) : taps_(std::move(taps)) {
  for (const auto& t : taps_) {
    detail::require(t.delay_s >= 0.0, "Cir: tap delays must be non-negative");
  }
  std::sort(taps_.begin(), taps_.end(),
            [](const CirTap& a, const CirTap& b) { return a.delay_s < b.delay_s; });
}

double Cir::total_energy() const noexcept {
  double e = 0.0;
  for (const auto& t : taps_) e += std::norm(t.gain);
  return e;
}

double Cir::mean_excess_delay() const noexcept {
  const double e = total_energy();
  if (e <= 0.0) return 0.0;
  double acc = 0.0;
  for (const auto& t : taps_) acc += std::norm(t.gain) * t.delay_s;
  return acc / e;
}

double Cir::rms_delay_spread() const noexcept {
  const double e = total_energy();
  if (e <= 0.0) return 0.0;
  const double mean = mean_excess_delay();
  double acc = 0.0;
  for (const auto& t : taps_) {
    const double d = t.delay_s - mean;
    acc += std::norm(t.gain) * d * d;
  }
  return std::sqrt(acc / e);
}

double Cir::max_delay() const noexcept {
  return taps_.empty() ? 0.0 : taps_.back().delay_s;
}

Cir& Cir::normalize_energy() {
  const double e = total_energy();
  if (e > 0.0) {
    const double g = 1.0 / std::sqrt(e);
    for (auto& t : taps_) t.gain *= g;
  }
  return *this;
}

Cir Cir::strongest(std::size_t count) const {
  std::vector<CirTap> sorted = taps_;
  std::sort(sorted.begin(), sorted.end(),
            [](const CirTap& a, const CirTap& b) { return std::norm(a.gain) > std::norm(b.gain); });
  if (sorted.size() > count) sorted.resize(count);
  return Cir(std::move(sorted));
}

double Cir::energy_capture(std::size_t count) const {
  const double total = total_energy();
  if (total <= 0.0) return 0.0;
  return strongest(count).total_energy() / total;
}

CplxVec Cir::sampled(double fs) const {
  detail::require(fs > 0.0, "Cir::sampled: fs must be positive");
  if (taps_.empty()) return {};
  const auto len = static_cast<std::size_t>(std::llround(max_delay() * fs)) + 1;
  CplxVec h(len, cplx{});
  for (const auto& t : taps_) {
    const auto idx = static_cast<std::size_t>(std::llround(t.delay_s * fs));
    h[std::min(idx, len - 1)] += t.gain;
  }
  return h;
}

Cir identity_cir() { return Cir({CirTap{0.0, cplx{1.0, 0.0}}}); }

}  // namespace uwb::channel
