#pragma once
// Test helper: runs a per-index trial closure through the one ordered-commit
// trial core (engine::measure_point) on a pool of \p workers.

#include <cstddef>

#include "common/rng.h"
#include "engine/parallel_ber.h"
#include "engine/thread_pool.h"
#include "sim/ber_simulator.h"

namespace uwb::test {

/// Trial i calls trial(i, rng) with rng = root.fork(i). Every worker shares
/// \p trial, so it must be a pure function of (index, rng) and safe to call
/// concurrently -- the contract that makes the point identical for any
/// worker count.
template <typename Trial>
sim::MeasuredPoint measure_trials(const Trial& trial, const sim::BerStop& stop,
                                  const Rng& root, std::size_t workers = 1) {
  engine::ThreadPool pool(workers);
  engine::PointState state;
  return engine::measure_point(
      [&trial]() -> engine::TrialFn {
        return [&trial](std::size_t index, Rng& rng) { return trial(index, rng); };
      },
      stop, root, pool, state);
}

}  // namespace uwb::test
