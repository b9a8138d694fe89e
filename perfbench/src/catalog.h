#pragma once
/// \file catalog.h
/// \brief What the benchmark runs and reports: the workloads (registry
///        scenario + stop rule + adaptive budget, and why each was chosen)
///        and the metric definitions. BENCHMARK.json at the repository root
///        is rendered from this catalogue, so the file and the binary cannot
///        disagree (a test pins the committed file to the rendering).

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"
#include "sim/ber_simulator.h"

namespace perfbench {

/// How long one run measures, in seconds (BENCHMARK.json "run_seconds").
inline constexpr int kRunSeconds = 20;

struct Workload {
  std::string name;
  std::string why;       ///< one line: what it stresses and why
  std::string scenario;  ///< ScenarioRegistry name
  uwb::sim::BerStop stop;
  std::size_t adaptive_budget = 0;  ///< > 0: SweepEngine::run_adaptive with this top-up budget
};

/// The workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// The workload named \p name. \throws uwb::InvalidArgument when unknown.
[[nodiscard]] const Workload& find_workload(const std::string& name);

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  double bound = 0.0;  ///< end-to-end only: tolerated worsening, share of the median

  [[nodiscard]] bool operator==(const MetricDef&) const = default;
};

/// Metrics every untraced run prints (--trace 0).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// Metrics the traced pass prints (--trace 1).
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The BENCHMARK.json document as parsed back: enough to check that a file
/// describes exactly this catalogue.
struct BenchmarkSpec {
  std::vector<std::string> command;
  std::vector<std::string> paths;
  int run_seconds = 0;
  std::vector<std::pair<std::string, std::string>> workloads;  ///< (name, why)
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;

  [[nodiscard]] bool operator==(const BenchmarkSpec&) const = default;
};

/// The catalogue as a BenchmarkSpec.
[[nodiscard]] BenchmarkSpec catalogue_spec();

/// Renders \p spec as BENCHMARK.json text (pretty, newline-terminated).
[[nodiscard]] std::string render_benchmark_json(const BenchmarkSpec& spec);

/// Parses BENCHMARK.json text. Strict: a missing or unknown key throws
/// uwb::InvalidArgument.
[[nodiscard]] BenchmarkSpec parse_benchmark_json(const std::string& text);

}  // namespace perfbench
