#include "sim/ber_simulator.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "engine/parallel_ber.h"

namespace uwb::sim {

BerStop scale_stop(BerStop stop, std::size_t error_divisor, std::size_t bits_divisor) {
  stop.min_errors =
      std::max<std::size_t>(1, stop.min_errors / std::max<std::size_t>(1, error_divisor));
  stop.max_bits =
      std::max<std::size_t>(1, stop.max_bits / std::max<std::size_t>(1, bits_divisor));
  return stop;
}

void validate_budgets(const BerStop& stop) {
  const auto check = [](std::size_t value, const char* name) {
    if (value > BerStop::kMaxBudget) {
      throw InvalidArgument(std::string("stop: ") + name + " " + std::to_string(value) +
                            " exceeds the maximum " + std::to_string(BerStop::kMaxBudget));
    }
  };
  check(stop.min_errors, "min_errors");
  check(stop.max_bits, "max_bits");
  check(stop.max_trials, "max_trials");
}

BerPoint measure_ber(const std::function<TrialOutcome()>& trial, const BerStop& stop) {
  // One worker commits the trials in call order; the closure owns its
  // randomness, so the per-trial Rng the core supplies goes unused.
  engine::ThreadPool pool(1);
  engine::PointState state;
  return engine::measure_point(
             [&trial]() -> engine::TrialFn {
               return [&trial](std::size_t, Rng&) { return trial(); };
             },
             stop, Rng(0), pool, state)
      .ber;
}

}  // namespace uwb::sim
