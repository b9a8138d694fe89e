// perfbench: the sweep benchmark. Runs one workload -- a whole registry
// sweep through engine::SweepEngine at every available CPU -- repeatedly
// for a fixed time, checks every result document, and prints the metrics
// as one JSON object on the last line of stdout.
//
//   perfbench --workload gen2_cm_fresh --seed 1 --seconds 20 --trace 0
//   perfbench --write-benchmark-json BENCHMARK.json
//
// --trace 0 prints the end-to-end metrics, timed with tracing off.
// --trace 1 adds one traced pass (trace recorder + stage profiler, with
// benchmark spans around every call into the library) and one untraced
// 1-worker sweep, and prints the per-layer metrics. Run it through
// perfbench/run.py, which builds it first; see perfbench/README.md.
//
// Exit codes: 0 all sweeps correct, 1 a sweep failed a check (the JSON line
// still says which), 2 bad arguments or a failure outside the sweeps.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog.h"
#include "common/error.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "engine/channel_cache.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "farm/verify.h"
#include "fingerprint.h"
#include "io/json.h"
#include "io/result_io.h"
#include "io/spec_io.h"
#include "measure.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "txrx/link.h"

namespace {

using namespace uwb;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/// Cold set-ups before each sweep, at least, and the time they run for, at
/// least; setup_s is the median over all of them. Set-up takes microseconds
/// to milliseconds, so only a median over many is steady from run to run.
constexpr std::size_t kMinSetupsPerBurst = 3;
constexpr double kSetupBurstSeconds = 0.05;
/// Sweep seeds per run, all derived from --seed. Under a CI-width stop and
/// adaptive top-ups the work a sweep does depends on its seed (which points
/// stop early, which get topped up), so one run times several inputs and
/// averages them.
constexpr std::uint64_t kSeedsPerRun = 4;
/// Timed sweeps per seed, at least (the window may allow more).
constexpr std::size_t kMinSweepsPerSeed = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  detail::require(in.good(), "cannot read '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string hex_digest(const std::string& bytes) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(farm::fnv1a_digest(bytes)));
  return buffer;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = perfbench::kRunSeconds;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string write_benchmark_json;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      detail::require(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
      detail::require(args.seconds > 0 && args.seconds <= 600, "--seconds must be in (0, 600]");
    } else if (arg == "--trace") {
      const std::string t = value();
      detail::require(t == "0" || t == "1", "--trace expects 0 or 1");
      args.trace = t == "1";
    } else if (arg == "--out-dir") {
      args.out_dir = value();
    } else if (arg == "--git-sha") {
      args.git_sha = value();
    } else if (arg == "--source-digest") {
      args.source_digest = value();
    } else if (arg == "--write-benchmark-json") {
      args.write_benchmark_json = value();
    } else {
      throw InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  detail::require(have_workload || !args.write_benchmark_json.empty(),
                  "--workload is required");
  return args;
}

/// Forwards to a JsonSink and times its end(): the result-document write.
class TimedJsonSink : public engine::ResultSink {
 public:
  TimedJsonSink(std::string path, obs::TraceRecorder* trace)
      : json_(std::move(path)), trace_(trace) {}

  void begin(const engine::SweepInfo& info) override { json_.begin(info); }
  void point(const engine::PointRecord& record) override { json_.point(record); }
  void end(const engine::SweepInfo& info) override {
    obs::Span span(trace_, "io", "bench: write result document");
    const Clock::time_point start = Clock::now();
    json_.end(info);
    write_s_ = seconds_since(start);
  }

  [[nodiscard]] double write_s() const noexcept { return write_s_; }

 private:
  engine::JsonSink json_;
  obs::TraceRecorder* trace_;
  double write_s_ = 0.0;
};

/// A prepared workload: the expanded scenario and a benchmark-owned channel
/// cache holding its ensembles, plus what preparing them cost.
struct Prepared {
  engine::ScenarioSpec scenario;
  std::unique_ptr<engine::ChannelCache> cache;
  double setup_s = 0.0;
  double resolve_ms = 0.0;
  double make_link_ms = 0.0;
  std::size_t sv_draws = 0;
};

/// Set-up as a user pays it before a sweep: expand the scenario, resolve
/// its ensembles into a cold cache, and build one link per point (seeded
/// as the engine seeds its per-worker links).
Prepared prepare(const Workload& workload, std::uint64_t seed, obs::TraceRecorder* trace) {
  const Clock::time_point start = Clock::now();
  Prepared p;
  {
    obs::Span span(trace, "registry", "bench: ScenarioRegistry::make");
    p.scenario = engine::ScenarioRegistry::global().make(workload.scenario);
  }
  p.cache = std::make_unique<engine::ChannelCache>();
  for (const engine::PointSpec& point : p.scenario.points) {
    const txrx::ChannelSource& source = point.link.options.channel_source;
    if (!source.is_ensemble() || point.link.options.cm < 1) continue;
    const channel::SvParams params =
        txrx::ensemble_sv_params(point.link.options.cm, point.link.generation());
    obs::Span span(trace, "channel_cache", "bench: ChannelCache::get");
    const Clock::time_point t = Clock::now();
    (void)p.cache->get(params, source.ensemble_seed, source.ensemble_count);
    p.resolve_ms += 1e3 * seconds_since(t);
  }
  const Rng sweep_root(seed);
  for (std::size_t i = 0; i < p.scenario.points.size(); ++i) {
    obs::Span span(trace, "txrx", "bench: make_link");
    const std::uint64_t link_seed = sweep_root.fork(i).fork(1).seed();
    const Clock::time_point t = Clock::now();
    (void)txrx::make_link(p.scenario.points[i].link, link_seed);
    p.make_link_ms += 1e3 * seconds_since(t);
  }
  p.sv_draws = p.cache->stats().sv_draws;
  p.setup_s = seconds_since(start);
  return p;
}

/// One sweep from the call to a written result document.
struct SweepRun {
  bool ok = false;
  std::string error;
  std::string bytes;  ///< the result document
  double wall_s = 0.0;
  double write_s = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t fft_lookups = 0;
  obs::StageTable stages;
};

SweepRun run_sweep(const Workload& workload, const Prepared& prepared, std::uint64_t seed,
                   std::size_t workers, const std::string& path, obs::TraceRecorder* trace,
                   obs::StageProfiler* profile) {
  SweepRun run;
  try {
    engine::SweepConfig config;
    config.seed = seed;
    config.workers = workers;
    config.stop = workload.stop;
    config.channel_cache = prepared.cache.get();
    config.trace = trace;
    config.profile = profile;
    engine::SweepEngine engine(config);
    TimedJsonSink sink(path, trace);
    const dsp::FftPlanCacheStats fft_before = dsp::fft_plan_cache_stats();
    const Clock::time_point start = Clock::now();
    engine::SweepResult result;
    {
      // Timed from outside: run_adaptive's own counters cover only its
      // base pass.
      obs::Span span(trace, "engine",
                     workload.adaptive_budget > 0 ? "bench: SweepEngine::run_adaptive"
                                                  : "bench: SweepEngine::run");
      result = workload.adaptive_budget > 0
                   ? engine.run_adaptive(prepared.scenario, workload.adaptive_budget, {&sink})
                   : engine.run(prepared.scenario, {&sink});
    }
    run.wall_s = seconds_since(start);
    const dsp::FftPlanCacheStats fft_after = dsp::fft_plan_cache_stats();
    run.fft_lookups =
        (fft_after.hits - fft_before.hits) + (fft_after.misses - fft_before.misses);
    run.write_s = sink.write_s();
    for (const engine::PointRecord& record : result.records) run.committed += record.ber.trials;
    run.stages = result.stages;
    run.bytes = slurp(path);
    run.ok = run.committed > 0;  // no cancel flag is set, so a sweep runs every point
    if (!run.ok) run.error = "sweep committed no trials";
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

/// Expectation failures of one result document (empty = passes).
std::vector<std::string> verify_document(const Workload& workload, const std::string& bytes,
                                         const io::JsonValue& expectations) {
  io::ResultDoc doc = io::parse_result_json(bytes);
  // The document's header carries the base-pass stop rule; a top-up
  // extends a point past its cap by at most the adaptive budget.
  if (workload.adaptive_budget > 0) doc.stop.max_trials += workload.adaptive_budget;
  return farm::verify_result(doc, expectations).failures;
}

/// Counts sweeps and failures. Every sweep must succeed and produce the
/// same result bytes as the first sweep of its seed, which must pass the
/// expectations.
class Ledger {
 public:
  Ledger(const Workload& workload, const io::JsonValue& expectations)
      : workload_(workload), expectations_(expectations) {}

  /// Records one sweep of \p seed; returns true when it passed every check.
  bool account(std::uint64_t seed, const SweepRun& run, const char* what) {
    ++attempted_;
    std::string failure;
    if (!run.ok) {
      failure = run.error;
    } else if (const auto it = references_.find(seed); it == references_.end()) {
      Reference& ref = references_[seed];
      ref.bytes = run.bytes;
      for (const std::string& f : verify_document(workload_, ref.bytes, expectations_)) {
        ref.failures += (ref.failures.empty() ? "" : "; ") + f;
      }
      failure = ref.failures;
    } else if (run.bytes != it->second.bytes) {
      failure = "result bytes differ from the seed's first sweep";
    } else {
      failure = it->second.failures;
    }
    if (failure.empty()) return true;
    ++failed_;
    std::fprintf(stderr, "perfbench: %s sweep (seed %llu) FAILED: %s\n", what,
                 static_cast<unsigned long long>(seed), failure.c_str());
    return false;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// The reference document of \p seed ("" before a sweep of it passed).
  [[nodiscard]] std::string reference(std::uint64_t seed) const {
    const auto it = references_.find(seed);
    return it == references_.end() ? "" : it->second.bytes;
  }

 private:
  struct Reference {
    std::string bytes;
    std::string failures;
  };
  const Workload& workload_;
  const io::JsonValue& expectations_;
  std::map<std::uint64_t, Reference> references_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Kish ESS over trials, summed over the importance-sampled points of a
/// result document (0 when it has none).
double ess_per_trial(const std::string& bytes) {
  const io::ResultDoc doc = io::parse_result_json(bytes);
  double ess = 0.0;
  double trials = 0.0;
  for (const io::ResultPoint& point : doc.points) {
    if (!point.weighted) continue;
    ess += std::strtod(point.ess.c_str(), nullptr);
    trials += static_cast<double>(point.trials);
  }
  return trials > 0.0 ? ess / trials : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Ordered metric values, printed with their catalogue units.
using Metrics = std::vector<std::pair<std::string, double>>;

io::JsonValue metrics_json(const Metrics& values, const std::vector<perfbench::MetricDef>& defs) {
  io::JsonValue out = io::JsonValue::object();
  for (const perfbench::MetricDef& def : defs) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : values) {
      if (name == def.name) {
        value = v;
        found = true;
      }
    }
    detail::require(found, "metric '" + def.name + "' was not measured");
    io::JsonValue entry = io::JsonValue::object();
    entry.set("value", io::JsonValue::number(value));
    entry.set("unit", io::JsonValue::string(def.unit));
    out.set(def.name, std::move(entry));
  }
  return out;
}

io::JsonValue numbers_json(const std::vector<double>& values) {
  io::JsonValue array = io::JsonValue::array();
  for (const double v : values) array.push_back(io::JsonValue::number(v));
  return array;
}

/// {"n", "q1", "median", "q3"} of at least two values.
io::JsonValue spread_json(const std::vector<double>& values) {
  const perfbench::Quartiles q = perfbench::quartiles(values);
  io::JsonValue out = io::JsonValue::object();
  out.set("n", io::JsonValue::number(static_cast<std::uint64_t>(values.size())));
  out.set("q1", io::JsonValue::number(q.q1));
  out.set("median", io::JsonValue::number(perfbench::median(values)));
  out.set("q3", io::JsonValue::number(q.q3));
  return out;
}

/// Median and quartiles of at least two values, to stderr.
void print_spread(const char* name, const std::vector<double>& values, const char* unit) {
  const perfbench::Quartiles q = perfbench::quartiles(values);
  std::fprintf(stderr, "  %-14s median %.6g %s  quartiles [%.6g, %.6g]  n=%zu\n", name,
               perfbench::median(values), unit, q.q1, q.q3, values.size());
}

int run(const Args& args) {
  const Workload& workload = perfbench::find_workload(args.workload);
  const io::JsonValue expectations = io::parse_json(
      slurp(std::string(PERFBENCH_SOURCE_DIR) + "/expectations/" + workload.name + ".json"));
  const std::size_t workers = perfbench::available_cpus();
  const std::string dir = args.out_dir + "/" + workload.name;
  std::filesystem::create_directories(dir);
  const std::string result_path = dir + "/result.json";
  const std::uint64_t fft_misses_at_start = dsp::fft_plan_cache_stats().misses;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < kSeedsPerRun; ++k) seeds.push_back(args.seed * kSeedsPerRun + k);

  // Set-up, cold each time, in a burst before every sweep so the median
  // samples the whole run rather than its first moment; the burst's last
  // scenario and cache serve the sweep that follows.
  std::vector<double> setup_s;
  std::vector<double> resolve_ms;
  std::vector<double> make_link_ms;
  const auto set_up = [&](std::uint64_t seed) -> Prepared {
    Prepared prepared;
    const Clock::time_point burst = Clock::now();
    for (std::size_t n = 0; n < kMinSetupsPerBurst || seconds_since(burst) < kSetupBurstSeconds;
         ++n) {
      prepared = prepare(workload, seed, nullptr);
      setup_s.push_back(prepared.setup_s);
      resolve_ms.push_back(prepared.resolve_ms);
      make_link_ms.push_back(prepared.make_link_ms);
    }
    return prepared;
  };
  Prepared prepared = set_up(seeds[0]);
  const std::string spec_digest = hex_digest(io::scenario_to_json_text(prepared.scenario));

  Ledger ledger(workload, expectations);
  // Warm-up: fills the FFT plan cache and the allocator. Each seed's first
  // sweep is the reference its later sweeps must reproduce byte for byte.
  ledger.account(seeds[0],
                 run_sweep(workload, prepared, seeds[0], workers, result_path, nullptr, nullptr),
                 "warm-up");
  const std::uint64_t fft_misses = dsp::fft_plan_cache_stats().misses - fft_misses_at_start;

  // Timed sweeps, round-robin over the seeds, whole rounds only.
  std::vector<std::vector<double>> wall_s(seeds.size());
  std::vector<std::uint64_t> committed(seeds.size(), 0);
  std::vector<double> write_ms;
  const auto enough = [&wall_s] {
    for (const auto& walls : wall_s) {
      if (walls.size() < kMinSweepsPerSeed) return false;
    }
    return true;
  };
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % seeds.size();
    if (k == 0 && enough() && seconds_since(window) >= args.seconds) break;
    if (ledger.failed() > 2 * seeds.size() * kMinSweepsPerSeed) break;
    prepared = set_up(seeds[k]);
    const SweepRun run =
        run_sweep(workload, prepared, seeds[k], workers, result_path, nullptr, nullptr);
    ledger.account(seeds[k], run, "timed");
    if (!run.ok) continue;  // a sweep that completed but failed a check still timed
    wall_s[k].push_back(run.wall_s);
    committed[k] = run.committed;
    write_ms.push_back(1e3 * run.write_s);
  }
  detail::require(enough(), "too few timed sweeps completed");

  // Per seed the median sweep; across seeds, their mean.
  double median_wall_sum = 0.0;
  double committed_sum = 0.0;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    median_wall_sum += perfbench::median(wall_s[k]);
    committed_sum += static_cast<double>(committed[k]);
  }
  const double tps_seed0 = static_cast<double>(committed[0]) / perfbench::median(wall_s[0]);

  Metrics metrics = {
      {"trials_per_s", committed_sum / median_wall_sum},
      {"sweep_s", median_wall_sum / static_cast<double>(seeds.size())},
      {"setup_s", perfbench::median(setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  std::map<std::string, std::uint64_t> self_us;

  if (args.trace) {
    obs::TraceRecorder recorder;
    recorder.name_thread("bench");
    obs::StageProfiler profiler;
    SweepRun traced;
    double traced_wall_s = 0.0;
    // Both extra sweeps run the first seed, and compare against its timed
    // sweeps.
    {
      obs::Span pass(&recorder, "bench", "traced pass");
      const Prepared traced_prep = prepare(workload, seeds[0], &recorder);
      traced = run_sweep(workload, traced_prep, seeds[0], workers, dir + "/result_traced.json",
                         &recorder, &profiler);
      traced_wall_s = traced.wall_s;
    }
    ledger.account(seeds[0], traced, "traced");
    obs::write_chrome_trace(recorder, dir + "/trace.json");

    prepared = prepare(workload, seeds[0], nullptr);
    const SweepRun w1 =
        run_sweep(workload, prepared, seeds[0], 1, dir + "/result_w1.json", nullptr, nullptr);
    ledger.account(seeds[0], w1, "1-worker");

    const std::vector<perfbench::SpanRecord> spans = perfbench::collect_spans(recorder);
    self_us = perfbench::self_time_by_category(spans);
    const double executed = static_cast<double>(perfbench::executed_trials(spans));
    const perfbench::SpanTotal busy = perfbench::span_total(spans, "engine", "trials");
    const perfbench::SpanTotal tasks = perfbench::span_total(spans, "pool", "task");
    const double busy_ns = 1e3 * static_cast<double>(busy.dur_us);
    const double per_trial = executed > 0.0 ? 1.0 / executed : 0.0;
    const double tps_w1 = w1.ok ? static_cast<double>(w1.committed) / w1.wall_s : 0.0;

    metrics = {
        {"engine.trials_per_s_w1", tps_w1},
        {"engine.parallel_eff",
         tps_w1 > 0.0 ? tps_seed0 / (static_cast<double>(workers) * tps_w1) : 0.0},
        {"engine.idle_frac",
         1.0 - 1e-6 * static_cast<double>(tasks.dur_us) /
                   (static_cast<double>(workers) * traced_wall_s)},
        {"engine.executed_per_committed",
         traced.committed > 0 ? executed / static_cast<double>(traced.committed) : 0.0},
        {"engine.links_built", static_cast<double>(tasks.spans)},
        {"engine.make_link_ms", perfbench::median(make_link_ms)},
        {"channel_cache.resolve_ms", perfbench::median(resolve_ms)},
        {"channel_cache.sv_draws", static_cast<double>(prepared.sv_draws)},
        {"txrx.busy_ms_per_trial", 1e-6 * busy_ns * per_trial},
    };
    double top_level_ns = 0.0;
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      const auto ns = static_cast<double>(traced.stages[stage].total_ns);
      if (stage != obs::Stage::kFftExec) top_level_ns += ns;  // fft_exec nests in the others
      metrics.emplace_back(std::string("stage.") + obs::stage_name(stage) + "_ms",
                           1e-6 * ns * per_trial);
    }
    const double tps_traced = static_cast<double>(traced.committed) / traced_wall_s;
    const Metrics tail = {
        {"stage.unattributed_frac", busy_ns > 0.0 ? 1.0 - top_level_ns / busy_ns : 0.0},
        {"dsp.fft_plan_lookups_per_trial", static_cast<double>(traced.fft_lookups) * per_trial},
        {"dsp.fft_plan_misses", static_cast<double>(fft_misses)},
        {"stats.ess_per_trial", ess_per_trial(ledger.reference(seeds[0]))},
        {"io.result_write_ms", perfbench::median(write_ms)},
        {"obs.trace_overhead_frac", 1.0 - tps_traced / tps_seed0},
        {"failed_frac",
         static_cast<double>(ledger.failed()) / static_cast<double>(ledger.attempted())},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
  }

  // Human report on stderr.
  std::fprintf(stderr, "perfbench %s: seed %llu, %zu workers, spec %s, %llu/%llu sweeps failed\n",
               workload.name.c_str(), static_cast<unsigned long long>(args.seed), workers,
               spec_digest.c_str(), static_cast<unsigned long long>(ledger.failed()),
               static_cast<unsigned long long>(ledger.attempted()));
  print_spread("setup_s", setup_s, "s");
  io::JsonValue seeds_json = io::JsonValue::array();
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    const std::string digest = hex_digest(ledger.reference(seeds[k]));
    std::fprintf(stderr, "  sweep seed %llu: result %s, %llu trials\n",
                 static_cast<unsigned long long>(seeds[k]), digest.c_str(),
                 static_cast<unsigned long long>(committed[k]));
    print_spread("sweep_s", wall_s[k], "s");
    io::JsonValue entry = io::JsonValue::object();
    entry.set("seed", io::JsonValue::number(seeds[k]));
    entry.set("result_digest", io::JsonValue::string(digest));
    entry.set("committed", io::JsonValue::number(committed[k]));
    entry.set("sweep_s", numbers_json(wall_s[k]));
    seeds_json.push_back(std::move(entry));
  }
  const std::vector<perfbench::MetricDef>& defs =
      args.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  for (const auto& [name, value] : metrics) {
    std::fprintf(stderr, "  %-34s %.6g\n", name.c_str(), value);
  }
  if (!self_us.empty()) {
    std::fprintf(stderr, "  self time by layer (traced pass):\n");
    for (const auto& [category, us] : self_us) {
      std::fprintf(stderr, "    %-16s %10.3f ms\n", category.c_str(),
                   1e-3 * static_cast<double>(us));
    }
  }

  // One record per run, appended; compare records only when their
  // fingerprints' machine parts match (run.py --compare).
  io::JsonValue record = io::JsonValue::object();
  record.set("fingerprint",
             perfbench::fingerprint_json(
                 perfbench::current_fingerprint(args.git_sha, args.source_digest)));
  record.set("workload", io::JsonValue::string(workload.name));
  record.set("seed", io::JsonValue::number(args.seed));
  record.set("seconds", io::JsonValue::number(args.seconds));
  record.set("trace", io::JsonValue::boolean(args.trace));
  record.set("workers", io::JsonValue::number(static_cast<std::uint64_t>(workers)));
  record.set("spec_digest", io::JsonValue::string(spec_digest));
  record.set("attempted", io::JsonValue::number(ledger.attempted()));
  record.set("failed", io::JsonValue::number(ledger.failed()));
  record.set("setup_s", spread_json(setup_s));
  record.set("sweeps", std::move(seeds_json));
  record.set("metrics", metrics_json(metrics, defs));
  io::JsonValue self_json = io::JsonValue::object();
  for (const auto& [category, us] : self_us) {
    self_json.set(category, io::JsonValue::number(1e-3 * static_cast<double>(us)));
  }
  record.set("self_ms", std::move(self_json));
  {
    std::ofstream out(args.out_dir + "/records.jsonl", std::ios::app);
    out << io::dump_json(record) << '\n';
  }

  io::JsonValue line = io::JsonValue::object();
  line.set("correct", io::JsonValue::boolean(ledger.failed() == 0));
  line.set("attempted", io::JsonValue::number(ledger.attempted()));
  line.set("failed", io::JsonValue::number(ledger.failed()));
  line.set("metrics", metrics_json(metrics, defs));
  std::fflush(stderr);
  std::printf("%s\n", io::dump_json(line).c_str());
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.write_benchmark_json.empty()) {
      std::ofstream out(args.write_benchmark_json, std::ios::binary | std::ios::trunc);
      out << perfbench::render_benchmark_json(perfbench::catalogue_spec());
      detail::require(out.good(), "cannot write '" + args.write_benchmark_json + "'");
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
