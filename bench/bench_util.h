#pragma once
/// \file bench_util.h
/// \brief Shared plumbing for the experiment benches: Monte-Carlo budgets
///        (scaled down when UWB_BENCH_FAST is set), link-BER helpers, and
///        uniform headers so EXPERIMENTS.md can quote outputs verbatim.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/ber_simulator.h"
#include "sim/table.h"
#include "txrx/link.h"

namespace uwb::bench {

/// True when the user asked for a quick pass (UWB_BENCH_FAST=1).
inline bool fast_mode() {
  const char* env = std::getenv("UWB_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

/// Monte-Carlo stopping rule scaled by the mode through the one shared
/// clamped helper (sim::scale_stop): fast mode divides the budgets by
/// 4 / 8, and every budget stays >= 1, so callers passing small budgets
/// still get a working stopping rule rather than a degenerate
/// min_errors == 0 (stop immediately) or max_bits == 0 one.
inline sim::BerStop stop_rule(std::size_t min_errors = 40, std::size_t max_bits = 120000) {
  sim::BerStop stop;
  stop.min_errors = min_errors;
  stop.max_bits = max_bits;
  stop.max_trials = 100000;
  return fast_mode() ? sim::scale_stop(stop, 4, 8) : sim::scale_stop(stop, 1, 1);
}

/// Mean of a recorded metric on a sweep point, or \p fallback when the
/// metric has no observations (e.g. sync time with zero detections).
inline double metric_mean(const sim::MetricSet& metrics, const std::string& name,
                          double fallback = 0.0) {
  const sim::MetricStats* stats = metrics.find(name);
  return stats == nullptr || stats->count == 0 ? fallback : stats->mean();
}

/// Worker count for engine sweeps: UWB_BENCH_WORKERS when set, else 0
/// (auto = hardware concurrency).
inline std::size_t worker_count() {
  const char* env = std::getenv("UWB_BENCH_WORKERS");
  if (env == nullptr || env[0] == '\0') return 0;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed <= 0 ? 0 : static_cast<std::size_t>(parsed);
}

/// Uniform experiment header: id, paper anchor, seed.
inline void print_header(const std::string& id, const std::string& claim, uint64_t seed) {
  std::printf("%s", sim::banner(id + " -- " + claim).c_str());
  std::printf("(seed %llu%s)\n\n", static_cast<unsigned long long>(seed),
              fast_mode() ? ", FAST mode" : "");
}

}  // namespace uwb::bench
