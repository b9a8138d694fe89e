#include "catalog.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/profile.h"

namespace perfbench {

namespace {

using uwb::io::JsonValue;

/// A fixed trial budget per point with the error and bit stops disabled:
/// every seed commits exactly points x trials, so throughput compares
/// like with like.
uwb::sim::BerStop fixed_budget(std::size_t trials) {
  uwb::sim::BerStop stop;
  stop.min_errors = std::numeric_limits<std::size_t>::max();
  stop.max_bits = std::numeric_limits<std::size_t>::max();
  stop.max_trials = trials;
  return stop;
}

/// uwb_sweep's stop defaults (--min-errors 40 --max-bits 120000) under a
/// CI-width target (--stop-ci) with a trial cap (--max-trials).
uwb::sim::BerStop ci_target(double rel_width, std::size_t max_trials) {
  uwb::sim::BerStop stop;
  stop.min_errors = 40;
  stop.max_bits = 120000;
  stop.max_trials = max_trials;
  stop.target_rel_ci_width = rel_width;
  return stop;
}

std::vector<Workload> make_workloads() {
  return {
      {"gen2_cm_fresh",
       "gen-2 AWGN+CM1-4 grid, fresh S-V channel per trial, fixed budget: rx_frontend, "
       "sync_acquire, channel_convolve and fft_exec dominate; 30 point barriers load the engine",
       "gen2_cm_grid", fixed_budget(48), 0},
      {"gen1_awgn_waterfall",
       "gen-1 single-precision AWGN path (FIRs, ziggurat noise, flash ADC, correlators), no FFT "
       "plans and no channel cache: gen-2, FFT and cache changes must read no change here",
       "gen1_waterfall", fixed_budget(48), 0},
      {"gen2_deep_is_adaptive",
       "gen-2 AWGN+CM1 over a cached 32-realization ensemble, plain vs IS, CI-width stop then "
       "run_adaptive top-ups: moves with channel-cache, stats and engine-waste changes",
       "gen2_cm_grid_deep", ci_target(0.5, 32), 400},
  };
}

MetricDef metric(std::string name, std::string unit, std::string better, double bound = 0.0) {
  return MetricDef{std::move(name), std::move(unit), std::move(better), bound};
}

std::vector<MetricDef> make_per_layer() {
  std::vector<MetricDef> m = {
      metric("engine.trials_per_s_w1", "1/s", "higher"),
      metric("engine.parallel_eff", "ratio", "higher"),
      metric("engine.idle_frac", "frac", "lower"),
      metric("engine.executed_per_committed", "ratio", "lower"),
      metric("engine.links_built", "count", "lower"),
      metric("engine.make_link_ms", "ms", "lower"),
      metric("channel_cache.resolve_ms", "ms", "lower"),
      metric("channel_cache.sv_draws", "count", "lower"),
      metric("txrx.busy_ms_per_trial", "ms/trial", "lower"),
  };
  for (std::size_t s = 0; s < uwb::obs::kStageCount; ++s) {
    m.push_back(metric(std::string("stage.") +
                           uwb::obs::stage_name(static_cast<uwb::obs::Stage>(s)) + "_ms",
                       "ms/trial", "lower"));
  }
  const std::vector<MetricDef> tail = {
      metric("stage.unattributed_frac", "frac", "lower"),
      metric("dsp.fft_plan_lookups_per_trial", "1/trial", "lower"),
      metric("dsp.fft_plan_misses", "count", "lower"),
      metric("stats.ess_per_trial", "ratio", "higher"),
      metric("io.result_write_ms", "ms", "lower"),
      metric("obs.trace_overhead_frac", "frac", "lower"),
      metric("failed_frac", "frac", "lower"),
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

JsonValue strings_json(const std::vector<std::string>& values) {
  JsonValue array = JsonValue::array();
  for (const std::string& v : values) array.push_back(JsonValue::string(v));
  return array;
}

JsonValue metrics_json(const std::vector<MetricDef>& metrics, bool with_bound) {
  JsonValue array = JsonValue::array();
  for (const MetricDef& m : metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue::string(m.name));
    entry.set("unit", JsonValue::string(m.unit));
    entry.set("better", JsonValue::string(m.better));
    if (with_bound) entry.set("bound", JsonValue::number(m.bound));
    array.push_back(std::move(entry));
  }
  return array;
}

/// Checks \p object has exactly \p keys (in any order).
void require_keys(const JsonValue& object, const std::vector<std::string>& keys,
                  const std::string& where) {
  uwb::detail::require(object.is_object(), "BENCHMARK.json: " + where + " is not an object");
  for (const auto& member : object.members()) {
    const bool known = std::find(keys.begin(), keys.end(), member.first) != keys.end();
    uwb::detail::require(known,
                         "BENCHMARK.json: unknown key '" + member.first + "' in " + where);
  }
  for (const std::string& k : keys) {
    uwb::detail::require(object.find(k) != nullptr,
                         "BENCHMARK.json: missing key '" + k + "' in " + where);
  }
}

std::vector<MetricDef> parse_metrics(const JsonValue& array, bool with_bound,
                                     const std::string& where) {
  std::vector<MetricDef> metrics;
  for (const JsonValue& entry : array.items()) {
    std::vector<std::string> keys = {"name", "unit", "better"};
    if (with_bound) keys.push_back("bound");
    require_keys(entry, keys, where);
    MetricDef m;
    m.name = entry.at("name").as_string();
    m.unit = entry.at("unit").as_string();
    m.better = entry.at("better").as_string();
    if (with_bound) m.bound = entry.at("bound").as_double();
    metrics.push_back(std::move(m));
  }
  return metrics;
}

std::vector<std::string> parse_strings(const JsonValue& array) {
  std::vector<std::string> values;
  for (const JsonValue& v : array.items()) values.push_back(v.as_string());
  return values;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw uwb::InvalidArgument("unknown workload '" + name + "'");
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> all = {
      metric("trials_per_s", "1/s", "higher", 0.25),
      metric("sweep_s", "s", "lower", 0.25),
      metric("setup_s", "s", "lower", 0.25),
      metric("peak_rss_mb", "MB", "lower", 0.25),
  };
  return all;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> all = make_per_layer();
  return all;
}

BenchmarkSpec catalogue_spec() {
  BenchmarkSpec spec;
  spec.command = {"python3", "perfbench/run.py"};
  spec.paths = {"perfbench"};
  spec.run_seconds = kRunSeconds;
  for (const Workload& w : workloads()) spec.workloads.emplace_back(w.name, w.why);
  spec.end_to_end = end_to_end_metrics();
  spec.per_layer = per_layer_metrics();
  return spec;
}

std::string render_benchmark_json(const BenchmarkSpec& spec) {
  JsonValue doc = JsonValue::object();
  doc.set("command", strings_json(spec.command));
  doc.set("paths", strings_json(spec.paths));
  doc.set("run_seconds", JsonValue::number(spec.run_seconds));
  JsonValue workloads_json = JsonValue::array();
  for (const auto& [name, why] : spec.workloads) {
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue::string(name));
    entry.set("why", JsonValue::string(why));
    workloads_json.push_back(std::move(entry));
  }
  doc.set("workloads", std::move(workloads_json));
  doc.set("end_to_end", metrics_json(spec.end_to_end, true));
  doc.set("per_layer", metrics_json(spec.per_layer, false));
  return uwb::io::dump_json_pretty(doc) + "\n";
}

BenchmarkSpec parse_benchmark_json(const std::string& text) {
  const JsonValue doc = uwb::io::parse_json(text);
  require_keys(doc, {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
               "the document");
  BenchmarkSpec spec;
  spec.command = parse_strings(doc.at("command"));
  spec.paths = parse_strings(doc.at("paths"));
  spec.run_seconds = doc.at("run_seconds").as_int();
  for (const JsonValue& entry : doc.at("workloads").items()) {
    require_keys(entry, {"name", "why"}, "workloads");
    spec.workloads.emplace_back(entry.at("name").as_string(), entry.at("why").as_string());
  }
  spec.end_to_end = parse_metrics(doc.at("end_to_end"), true, "end_to_end");
  spec.per_layer = parse_metrics(doc.at("per_layer"), false, "per_layer");
  return spec;
}

}  // namespace perfbench
