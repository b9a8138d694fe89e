#pragma once
/// \file adaptive.h
/// \brief Stratified adaptive trial allocation: pure decision logic for
///        spending a remaining trial budget on the sweep points whose BER
///        estimate has the widest *relative* confidence interval. The
///        engine drives the loop (each top-up resumes the point's committed
///        prefix and runs only the new trials, see engine::PointState); the
///        policy here is engine-free and unit-testable.

#include <cstddef>
#include <vector>

namespace uwb::stats {

/// One sweep point's allocation state.
struct AllocPoint {
  double ber = 0.0;            ///< current estimate
  double ci_halfwidth = 0.0;   ///< current interval half-width
  std::size_t trials = 0;      ///< trials spent so far
  bool saturated = false;      ///< point can no longer grow (caps hit / target met)
};

/// Relative CI width used for ranking. A zero-BER point is infinitely
/// wide -- it has measured nothing and gets first claim on budget.
[[nodiscard]] double relative_ci_width(double ber, double ci_halfwidth);

/// Index of the unsaturated point with the widest relative CI (lowest
/// index wins ties, so allocation is deterministic). -1 when every point
/// is saturated.
[[nodiscard]] int pick_widest(const std::vector<AllocPoint>& points);

/// Trials to grant the picked point this round: double its current spend,
/// floored at \p min_chunk, capped by \p remaining. 0 when no budget.
[[nodiscard]] std::size_t next_chunk(std::size_t current_trials, std::size_t remaining,
                                     std::size_t min_chunk = 64);

}  // namespace uwb::stats
