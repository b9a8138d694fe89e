#pragma once
/// \file metrics.h
/// \brief Measurement bookkeeping: BER counters with confidence intervals
///        and the named-metric reductions (count / sum / sum-of-squares) the
///        sweep engine accumulates.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace uwb::sim {

/// Accumulates bit-error observations.
class BerCounter {
 public:
  void add(std::size_t errors, std::size_t bits) noexcept {
    errors_ += errors;
    bits_ += bits;
  }

  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

  /// Point estimate (0 when no bits observed).
  [[nodiscard]] double ber() const noexcept {
    return bits_ == 0 ? 0.0 : static_cast<double>(errors_) / static_cast<double>(bits_);
  }

  /// Wilson-score interval half-width at ~95% confidence.
  [[nodiscard]] double ci95_halfwidth() const noexcept;

  void reset() noexcept {
    errors_ = 0;
    bits_ = 0;
  }

 private:
  std::size_t errors_ = 0;
  std::size_t bits_ = 0;
};

/// Reduction state of one named scalar metric: count / sum / sum-of-squares.
/// This is the representation the sweep engine commits trial metrics into --
/// merging two states is exact integer/FP addition, and mean/variance are
/// derived on demand, so a point's statistics are a pure function of the
/// committed trial prefix.
struct MetricStats {
  std::size_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void add(double value) noexcept {
    ++count;
    sum += value;
    sum_sq += value * value;
  }

  /// Accumulates another state (same metric). Exact for counts; the FP sums
  /// add in call order, so callers that need bit-reproducibility must merge
  /// in a deterministic order (the engine commits in trial-index order).
  void merge(const MetricStats& other) noexcept {
    count += other.count;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }

  /// Sample mean (0 when no observations).
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Unbiased sample variance (n-1 denominator; 0 when count < 2). Clamped
  /// at 0 against the cancellation the sum-of-squares form can produce.
  [[nodiscard]] double variance() const noexcept;

  [[nodiscard]] bool operator==(const MetricStats&) const = default;
};

/// An ordered set of named metric reductions. Order is first-appearance
/// order of add() calls -- deterministic under the engine's ordered commit
/// -- and is preserved through serialization, so result files are stable.
class MetricSet {
 public:
  /// Adds one observation of \p name (creates the entry on first sight).
  void add(const std::string& name, double value);

  [[nodiscard]] const std::vector<std::pair<std::string, MetricStats>>& entries()
      const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Stats for \p name, or nullptr when the metric was never observed.
  [[nodiscard]] const MetricStats* find(const std::string& name) const noexcept;

  [[nodiscard]] bool operator==(const MetricSet&) const = default;

 private:
  MetricStats& entry(const std::string& name);

  std::vector<std::pair<std::string, MetricStats>> entries_;
};

}  // namespace uwb::sim
