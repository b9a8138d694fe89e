// uwb_sweep: the sweep-engine CLI. One declarative entry point for every
// link scenario -- registry-built or loaded from a JSON spec file -- with
// process-level sharding on the engine's deterministic seeding contract.
//
//   uwb_sweep --list
//   uwb_sweep gen2_cm_grid --fast --workers 4 --out bench/results/grid.json
//   uwb_sweep gen2_cm_grid channel=CM3,CM4 ebn0_db=12 --shard 0/2
//   uwb_sweep gen2_cm_grid --dump-scenario spec.json
//   uwb_sweep --file spec.json --seed 7 --out run.json
//   uwb_sweep --merge s0.json s1.json --out merged.json
//   uwb_sweep precompute gen2_cm_grid --channel-ensemble 64 --channel-cache DIR
//   uwb_sweep gen2_cm_grid --channel-ensemble 64 --channel-cache DIR --out run.json
//
// Shard semantics: "--shard i/N" runs the points whose global plan index is
// congruent to i mod N. Seeding is keyed on the global index, so the N
// shards together measure exactly the unsharded point set, and merging
// their JSON outputs (--merge) reproduces the unsharded file byte for byte.
//
// Channel ensembles: "--channel-ensemble N" switches every multipath point
// to a shared N-realization channel ensemble (common random numbers across
// the Eb/N0/backend axes; trial i uses realization i % N). "precompute"
// materializes those ensembles into the binary store ("--channel-cache",
// default bench/results/channels) so sharded/remote runs load instead of
// regenerate -- results are byte-identical either way (docs/channel_cache.md).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.h"
#include "common/error.h"
#include "engine/channel_cache.h"
#include "farm/exit_codes.h"
#include "farm/fault.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "io/cir_io.h"
#include "io/file.h"
#include "io/result_io.h"
#include "io/spec_io.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace {

using namespace uwb;
using namespace uwb::cli;

/// SIGINT/SIGTERM land here: the engine checks the flag between points
/// (and inside the trial loop), finishes winding down, and the normal exit
/// path flushes a valid partial result document plus its manifest. A
/// second signal during that wind-down still only sets the flag -- the
/// default-action escape hatch is SIGQUIT/SIGKILL.
std::atomic<bool> g_cancel{false};

extern "C" void handle_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  uwb_sweep --list\n"
               "      List the registered scenarios.\n"
               "  uwb_sweep <scenario> [axis=value[,value...] ...] [options]\n"
               "      Run a registered scenario, optionally restricted to the given\n"
               "      axis values (unknown axes and unmatched values are errors).\n"
               "  uwb_sweep --file <spec.json> [axis=value ...] [options]\n"
               "      Run a scenario loaded from a JSON spec file.\n"
               "  uwb_sweep --merge <shard.json> <shard.json>... --out <path>\n"
               "      Merge shard result files into one document. Coverage must be\n"
               "      complete (no duplicate and no missing point indices) unless\n"
               "      --allow-partial is given.\n"
               "  uwb_sweep precompute <scenario|--file spec.json> [axis=value ...]\n"
               "      Materialize the scenario's channel ensembles into the binary\n"
               "      store (give --channel-ensemble N unless the spec already uses\n"
               "      ensemble-mode channel sources).\n"
               "\n"
               "options:\n"
               "  --workers N        worker threads (default: all cores)\n"
               "  --seed S           sweep seed (default: the engine default)\n"
               "  --shard i/N        run only points with index %% N == i\n"
               "  --fast             shrink the stopping rule (min_errors/4, max_bits/8)\n"
               "  --min-errors E, --max-bits B, --max-trials T\n"
               "                     stopping rule (defaults: 40, 120000, 100000)\n"
               "  --stop-metric M    count min-errors against failed trials of the\n"
               "                     named success-flag metric (e.g. timing_correct)\n"
               "                     instead of bit errors; every point must record M\n"
               "  --stop-ci W        replace the error budget with a CI-width target:\n"
               "                     a point stops once its 95%% CI half-width is at\n"
               "                     most W x its BER estimate (max-bits/max-trials\n"
               "                     stay as hard caps)\n"
               "  --adaptive-budget N\n"
               "                     after the base pass, spend up to N extra trials\n"
               "                     on whichever point has the widest relative CI\n"
               "                     (deterministic; incompatible with --shard)\n"
               "  --ci-method M      two-sided interval for unweighted points:\n"
               "                     clopper_pearson (default, exact) or wilson\n"
               "  --channel-ensemble N\n"
               "                     share one N-realization channel ensemble per CM\n"
               "                     profile instead of drawing fresh per trial\n"
               "  --channel-seed S   ensemble base seed (default: a fixed constant,\n"
               "                     so every host derives the same ensembles)\n"
               "  --channel-cache D  binary store directory consulted before\n"
               "                     generating (default for precompute:\n"
               "                     bench/results/channels)\n"
               "  --out PATH         write results to PATH (.json or .csv); a run\n"
               "                     manifest sidecar lands at PATH.run.json\n"
               "  --dump-scenario P  serialize the expanded scenario spec to P and,\n"
               "                     unless --out is also given, exit without sweeping\n"
               "  --trace PATH       record spans/counters from the engine, pool, and\n"
               "                     channel cache into a Chrome trace-event JSON at\n"
               "                     PATH (open in Perfetto); results are unchanged\n"
               "  --progress         live progress heartbeat on stderr (points done,\n"
               "                     trials/sec, errors, ETA)\n"
               "  --progress-interval SEC\n"
               "                     heartbeat interval (default 1.0; needs --progress)\n"
               "  --progress-format F\n"
               "                     heartbeat rendering: text (default) or json --\n"
               "                     one machine-readable object per line for\n"
               "                     supervisors like uwb_farm (implies --progress)\n"
               "  --profile          per-stage time/throughput attribution inside the\n"
               "                     links (tx/channel/frontend/ADC/sync/rake/demod/\n"
               "                     FFT): a stderr table after the run, stage tables\n"
               "                     in the manifest sidecar, and -- with --trace -- a\n"
               "                     Chrome counter track; results are unchanged\n"
               "  --allow-partial    (with --merge) accept coverage gaps and mark no\n"
               "                     error; duplicates are still rejected\n"
               "  --quiet            no console table, no end-of-run counter summary\n"
               "\n"
               "All diagnostics, progress, and summaries go to stderr; stdout carries\n"
               "only results (the console table, --list, and subcommand reports).\n"
               "\n"
               "exit codes:\n"
               "  0  success\n"
               "  1  runtime failure (I/O, internal error)\n"
               "  2  bad arguments / usage\n"
               "  3  scenario spec (or, with --merge, a shard document)\n"
               "     failed to load or validate\n"
               "  4  interrupted (SIGINT/SIGTERM); a valid partial result document\n"
               "     and its manifest (interrupted: true) were still flushed\n");
  return out == stdout ? farm::kExitOk : farm::kExitBadArgs;
}

struct Args {
  bool list = false;
  bool quiet = false;
  bool fast = false;
  bool precompute = false;
  bool progress = false;
  bool profile = false;
  bool allow_partial = false;
  double progress_interval_s = 1.0;
  obs::ProgressOptions::Format progress_format = obs::ProgressOptions::Format::kText;
  std::string scenario;
  std::string spec_file;
  std::vector<std::string> merge_inputs;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string out_path;
  std::string dump_scenario_path;
  std::string trace_path;
  std::size_t channel_ensemble = 0;  ///< 0 = leave the spec's channel sources alone
  std::optional<std::uint64_t> channel_seed;
  std::string channel_cache_dir;
  std::size_t adaptive_budget = 0;  ///< 0 = plain run (no adaptive top-up pass)
  engine::SweepConfig sweep;
};

void parse_shard(const std::string& text, engine::SweepConfig& sweep) {
  const auto slash = text.find('/');
  detail::require(slash != std::string::npos,
                  "--shard expects i/N, got '" + text + "'");
  sweep.shard_index = parse_u64(text.substr(0, slash), "--shard index");
  sweep.shard_count = parse_u64(text.substr(slash + 1), "--shard count");
  detail::require(sweep.shard_count >= 1 && sweep.shard_index < sweep.shard_count,
                  "--shard needs 0 <= i < N, got '" + text + "'");
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.sweep.stop.min_errors = 40;
  args.sweep.stop.max_bits = 120000;
  args.sweep.stop.max_trials = 100000;

  auto next = [&](int& i, const char* flag) -> std::string {
    detail::require(i + 1 < argc, std::string(flag) + " needs a value");
    return argv[++i];
  };

  bool merging = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") args.list = true;
    else if (arg == "--quiet") args.quiet = true;
    else if (arg == "--fast") args.fast = true;
    else if (arg == "--file") args.spec_file = next(i, "--file");
    else if (arg == "--merge") merging = true;
    else if (arg == "--allow-partial") args.allow_partial = true;
    else if (arg == "--workers")
      args.sweep.workers = parse_workers(next(i, "--workers"), "--workers");
    else if (arg == "--seed") args.sweep.seed = parse_u64(next(i, "--seed"), "--seed");
    else if (arg == "--shard") parse_shard(next(i, "--shard"), args.sweep);
    else if (arg == "--min-errors")
      args.sweep.stop.min_errors = parse_u64(next(i, "--min-errors"), "--min-errors");
    else if (arg == "--max-bits")
      args.sweep.stop.max_bits = parse_u64(next(i, "--max-bits"), "--max-bits");
    else if (arg == "--max-trials")
      args.sweep.stop.max_trials = parse_u64(next(i, "--max-trials"), "--max-trials");
    else if (arg == "--stop-metric") args.sweep.stop.metric = next(i, "--stop-metric");
    else if (arg == "--stop-ci")
      args.sweep.stop.target_rel_ci_width =
          parse_positive_double(next(i, "--stop-ci"), "--stop-ci");
    else if (arg == "--adaptive-budget")
      args.adaptive_budget = parse_u64(next(i, "--adaptive-budget"), "--adaptive-budget");
    else if (arg == "--ci-method")
      args.sweep.ci_method = stats::ci_method_from_name(next(i, "--ci-method"));
    else if (arg == "--out") args.out_path = next(i, "--out");
    else if (arg == "--dump-scenario") args.dump_scenario_path = next(i, "--dump-scenario");
    else if (arg == "--trace") args.trace_path = next(i, "--trace");
    else if (arg == "--progress") args.progress = true;
    else if (arg == "--progress-interval")
      args.progress_interval_s =
          parse_positive_double(next(i, "--progress-interval"), "--progress-interval");
    else if (arg == "--progress-format") {
      const std::string format = next(i, "--progress-format");
      if (format == "text") args.progress_format = obs::ProgressOptions::Format::kText;
      else if (format == "json") args.progress_format = obs::ProgressOptions::Format::kJson;
      else throw InvalidArgument("--progress-format expects text or json, got '" + format + "'");
      args.progress = true;  // asking for a format implies wanting the heartbeat
    }
    else if (arg == "--profile") args.profile = true;
    else if (arg == "--channel-ensemble") {
      args.channel_ensemble = parse_u64(next(i, "--channel-ensemble"), "--channel-ensemble");
      detail::require(args.channel_ensemble >= 1 &&
                          args.channel_ensemble <= txrx::ChannelSource::kMaxEnsembleCount,
                      "--channel-ensemble needs 1 <= N <= " +
                          std::to_string(txrx::ChannelSource::kMaxEnsembleCount));
    }
    else if (arg == "--channel-seed")
      args.channel_seed = parse_u64(next(i, "--channel-seed"), "--channel-seed");
    else if (arg == "--channel-cache") args.channel_cache_dir = next(i, "--channel-cache");
    else if (arg == "--help" || arg == "-h") std::exit(usage(stdout));
    else if (arg.rfind("--", 0) == 0)
      throw InvalidArgument("unknown option '" + arg + "'");
    else if (merging) args.merge_inputs.push_back(arg);
    else if (arg == "precompute" && !args.precompute && args.scenario.empty())
      args.precompute = true;
    else if (arg.find('=') != std::string::npos) {
      const auto eq = arg.find('=');
      args.overrides.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      detail::require(args.scenario.empty(),
                      "more than one scenario name given ('" + args.scenario +
                          "' and '" + arg + "')");
      args.scenario = arg;
    }
  }
  if (args.fast) {
    // Same scaling as the benches' fast mode (one shared clamped helper:
    // a small budget can never degenerate to zero).
    args.sweep.stop = sim::scale_stop(args.sweep.stop, 4, 8);
  }
  detail::require(!args.channel_seed.has_value() || args.channel_ensemble >= 1,
                  "--channel-seed needs --channel-ensemble");
  detail::require(!args.allow_partial || merging,
                  "--allow-partial only applies to --merge");
  sim::validate_budgets(args.sweep.stop);
  detail::require(args.adaptive_budget <= sim::BerStop::kMaxBudget,
                  "--adaptive-budget exceeds the maximum " +
                      std::to_string(sim::BerStop::kMaxBudget));
  detail::require(args.adaptive_budget == 0 || args.sweep.shard_count == 1,
                  "--adaptive-budget is incompatible with --shard (the allocator "
                  "must see every point's CI)");
  detail::require(args.scenario.empty() || args.spec_file.empty(),
                  "give either a scenario name or --file, not both");
  return args;
}

/// Human summary of a run's counters -- the ChannelCache/fft-plan/pool
/// numbers that were previously collected and dropped on the floor.
/// Printed to stderr so result piping stays clean.
void print_counter_summary(const obs::RunCounters& counters) {
  std::fprintf(stderr,
               "channel cache: %llu hits, %llu disk loads, %llu generated "
               "(%llu S-V draws) | fft plans: %llu hits, %llu built | "
               "trials: %llu executed, %llu committed | "
               "pool: %zu workers, %llu tasks (%llu stolen), idle %.2fs | wall %.2fs | "
               "peak rss %.1f MB\n",
               static_cast<unsigned long long>(counters.cache_hits),
               static_cast<unsigned long long>(counters.cache_disk_loads),
               static_cast<unsigned long long>(counters.cache_generated),
               static_cast<unsigned long long>(counters.cache_sv_draws),
               static_cast<unsigned long long>(counters.fft_plan_hits),
               static_cast<unsigned long long>(counters.fft_plan_misses),
               static_cast<unsigned long long>(counters.trials_executed),
               static_cast<unsigned long long>(counters.trials_committed),
               counters.pool.size(),
               static_cast<unsigned long long>(counters.pool_executed()),
               static_cast<unsigned long long>(counters.pool_stolen()),
               static_cast<double>(counters.pool_idle_us()) / 1e6, counters.wall_s,
               counters.peak_rss_mb);
}

/// Loads (--file) or expands (registry) the scenario, applies axis
/// restrictions, and -- with --channel-ensemble N -- switches every point
/// onto a shared N-realization channel ensemble.
engine::ScenarioSpec resolve_scenario(const Args& args) {
  engine::ScenarioSpec scenario;
  if (!args.spec_file.empty()) {
    scenario = io::load_scenario_file(args.spec_file);
  } else {
    scenario = engine::ScenarioRegistry::global().make(args.scenario);
  }
  for (const auto& [axis, values] : args.overrides) {
    engine::restrict_scenario(scenario, axis, values);
  }
  if (args.channel_ensemble >= 1) {
    txrx::ChannelSource source;
    source.mode = txrx::ChannelSource::Mode::kEnsemble;
    source.ensemble_count = args.channel_ensemble;
    if (args.channel_seed.has_value()) source.ensemble_seed = *args.channel_seed;
    for (engine::PointSpec& point : scenario.points) {
      point.link.options.channel_source = source;
    }
  }
  return scenario;
}

/// The distinct ensembles a plan resolves: one per (generation-adjusted CM
/// profile, seed, count) -- AWGN and fresh-draw points contribute none.
std::vector<std::pair<uwb::channel::SvParams, txrx::ChannelSource>> ensemble_groups(
    const engine::ScenarioSpec& scenario) {
  std::vector<std::pair<uwb::channel::SvParams, txrx::ChannelSource>> groups;
  for (const engine::PointSpec& point : scenario.points) {
    const txrx::ChannelSource& source = point.link.options.channel_source;
    if (!source.is_ensemble() || point.link.options.cm < 1) continue;
    uwb::channel::SvParams params =
        txrx::ensemble_sv_params(point.link.options.cm, point.link.generation());
    bool seen = false;
    for (const auto& [p, s] : groups) {
      if (engine::sv_fingerprint(p) == engine::sv_fingerprint(params) && s == source) {
        seen = true;
        break;
      }
    }
    if (!seen) groups.emplace_back(std::move(params), source);
  }
  return groups;
}

int run_precompute(const Args& args, const engine::ScenarioSpec& scenario) {
  const auto groups = ensemble_groups(scenario);
  detail::require(!groups.empty(),
                  "precompute: no ensemble-mode multipath points -- give "
                  "--channel-ensemble N or a spec whose channel_source is 'ensemble'");
  const std::string dir = args.channel_cache_dir.empty() ? io::default_channel_store_dir()
                                                         : args.channel_cache_dir;
  for (const auto& [params, source] : groups) {
    const engine::ChannelEnsemble ensemble =
        engine::make_ensemble(params, source.ensemble_seed, source.ensemble_count);
    const std::string stem = io::save_ensemble(ensemble, dir);
    std::fprintf(stderr, "%s: %zu realizations -> %s.{cir,json}\n", params.name.c_str(),
                 ensemble.realizations.size(), stem.c_str());
  }
  std::fprintf(stderr, "%zu ensemble(s) -> %s\n", groups.size(), dir.c_str());
  return 0;
}

int run_list() {
  const auto& registry = engine::ScenarioRegistry::global();
  for (const std::string& name : registry.names()) {
    const engine::ScenarioSpec spec = registry.make(name);
    std::printf("%-24s %3zu points  %s\n", name.c_str(), spec.points.size(),
                spec.description.c_str());
  }
  return 0;
}

int run_merge(const Args& args) {
  detail::require(args.merge_inputs.size() >= 2,
                  "--merge needs at least two input files");
  detail::require(!args.out_path.empty(), "--merge needs --out");
  std::vector<io::ResultDoc> shards;
  for (const std::string& path : args.merge_inputs) {
    const std::string text = io::read_file(path, "--merge");
    try {
      shards.push_back(io::parse_result_json(text));
    } catch (const uwb::Error& e) {
      std::fprintf(stderr, "uwb_sweep: %s: %s\n", path.c_str(), e.what());
      return farm::kExitSpecLoad;
    }
  }
  const io::ResultDoc merged = io::merge_results(shards, args.allow_partial);
  io::write_file(args.out_path, io::write_result_json(merged), "--merge");
  std::fprintf(stderr, "merged %zu shards (%zu points) -> %s\n", shards.size(),
               merged.points.size(), args.out_path.c_str());
  return 0;
}

int run_sweep(const Args& args, const engine::ScenarioSpec& scenario) {
  // Test-only fault hook (docs/farm.md): inert unless UWB_FARM_FAULT names
  // this worker's shard, in which case the process crashes, hangs, or
  // corrupts its output exactly where a real fault would strike --
  // after arguments and the spec resolved, before any result exists.
  farm::FaultInjector::from_env(args.sweep.shard_index).fire(args.out_path);

  if (!args.dump_scenario_path.empty()) {
    io::save_scenario_file(scenario, args.dump_scenario_path);
    std::fprintf(stderr, "scenario spec (%zu points) -> %s\n", scenario.points.size(),
                 args.dump_scenario_path.c_str());
    // Dump-only unless the caller also asked for results: the dump-then-
    // edit workflow must not spend minutes sweeping just to get a file.
    if (args.out_path.empty()) return 0;
  }

  engine::ConsoleTableSink console;
  std::optional<engine::JsonSink> json;
  std::optional<engine::CsvSink> csv;
  std::vector<engine::ResultSink*> sinks;
  if (!args.quiet) sinks.push_back(&console);
  if (!args.out_path.empty()) {
    const bool is_csv = args.out_path.size() >= 4 &&
                        args.out_path.compare(args.out_path.size() - 4, 4, ".csv") == 0;
    if (is_csv) {
      csv.emplace(args.out_path);
      sinks.push_back(&*csv);
    } else {
      json.emplace(args.out_path);
      sinks.push_back(&*json);
    }
  }

  // A per-invocation cache keeps the global one untouched; pointing it at
  // the binary store turns generation into loads (results are identical
  // either way -- the ensemble is a pure function of its key).
  engine::ChannelCache cache;
  if (!args.channel_cache_dir.empty()) cache.set_directory(args.channel_cache_dir);
  engine::SweepConfig sweep_config = args.sweep;
  sweep_config.channel_cache = &cache;

  // Telemetry is strictly observational: the result JSON/CSV bytes are
  // identical with tracing and progress on or off (tested + CI cmp).
  std::optional<obs::TraceRecorder> trace;
  if (!args.trace_path.empty()) trace.emplace();
  std::optional<obs::ProgressMeter> progress;
  if (args.progress) {
    obs::ProgressOptions options;
    options.interval_s = args.progress_interval_s;
    options.format = args.progress_format;
    progress.emplace(options);
  }
  std::optional<obs::StageProfiler> profiler;
  if (args.profile) profiler.emplace();
  sweep_config.trace = trace.has_value() ? &*trace : nullptr;
  sweep_config.progress = progress.has_value() ? &*progress : nullptr;
  sweep_config.profile = profiler.has_value() ? &*profiler : nullptr;

  // Cooperative interruption: SIGINT/SIGTERM set a flag the engine polls,
  // the sweep winds down at the next point boundary, and everything below
  // still runs -- so an interrupted run flushes a *valid* partial result
  // document (a prefix of completed points) plus a manifest that says so.
  sweep_config.cancel = &g_cancel;
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);

  engine::SweepEngine engine(sweep_config);
  const engine::SweepResult result =
      args.adaptive_budget > 0 ? engine.run_adaptive(scenario, args.adaptive_budget, sinks)
                               : engine.run(scenario, sinks);

  if (trace.has_value()) {
    obs::write_chrome_trace(*trace, args.trace_path);
    std::fprintf(stderr, "trace: %zu events -> %s\n", trace->event_count(),
                 args.trace_path.c_str());
  }
  if (!args.out_path.empty()) {
    // The run-manifest sidecar carries everything deliberately left out of
    // the deterministic result file: resolved workers, per-point wall
    // time, counter totals, build flags.
    obs::RunManifest manifest;
    manifest.scenario = scenario.name;
    manifest.seed = sweep_config.seed;
    manifest.workers = result.counters.pool.size();
    manifest.shard_index = sweep_config.shard_index;
    manifest.shard_count = sweep_config.shard_count;
    manifest.stop = sweep_config.stop;
    manifest.result_path = args.out_path;
    manifest.trace_path = args.trace_path;
    manifest.interrupted = result.interrupted;
    manifest.build = obs::current_build_info();
    manifest.counters = result.counters;
    manifest.stages = result.stages;
    for (const engine::PointRecord& record : result.records) {
      obs::PointTiming timing;
      timing.index = record.index;
      timing.label = record.spec.label;
      timing.elapsed_s = record.elapsed_s;
      timing.trials = record.ber.trials;
      timing.bits = record.ber.bits;
      timing.errors = record.ber.errors;
      timing.stages = record.stages;
      manifest.points.push_back(std::move(timing));
    }
    const std::string manifest_path = obs::manifest_path_for(args.out_path);
    obs::write_run_manifest(manifest, manifest_path);
    std::fprintf(stderr, "%zu points -> %s (manifest: %s)\n", result.records.size(),
                 args.out_path.c_str(), manifest_path.c_str());
  }
  if (args.profile) {
    std::fprintf(stderr, "stage profile (run totals):\n");
    obs::print_stage_table(result.stages, stderr);
  }
  if (!args.quiet) print_counter_summary(result.counters);
  if (result.interrupted) {
    std::fprintf(stderr,
                 "uwb_sweep: interrupted after %zu of %zu points; partial "
                 "results flushed\n",
                 result.records.size(), scenario.points.size());
    return farm::kExitInterrupted;
  }
  return farm::kExitOk;
}

}  // namespace

// Exit-code contract (also in usage() and docs/cli.md): 0 success,
// 1 runtime failure, 2 bad arguments, 3 spec load/validation failure,
// 4 interrupted with a valid partial result flushed. The farm's retry
// classifier leans on this split: 2 and 3 are permanent, the rest
// transient.
int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const uwb::Error& e) {
    std::fprintf(stderr, "uwb_sweep: %s\n", e.what());
    return farm::kExitBadArgs;
  }
  try {
    if (args.list) return run_list();
    if (!args.merge_inputs.empty()) return run_merge(args);
    if (args.scenario.empty() && args.spec_file.empty()) return usage(stderr);
    engine::ScenarioSpec scenario;
    try {
      scenario = resolve_scenario(args);
    } catch (const uwb::Error& e) {
      std::fprintf(stderr, "uwb_sweep: %s\n", e.what());
      return farm::kExitSpecLoad;
    }
    if (args.precompute) return run_precompute(args, scenario);
    return run_sweep(args, scenario);
  } catch (const uwb::Error& e) {
    std::fprintf(stderr, "uwb_sweep: %s\n", e.what());
    return farm::kExitRuntime;
  } catch (const std::exception& e) {
    // Anything the validators did not anticipate (an allocation failure,
    // a filesystem error) is still a runtime failure, never an abort.
    std::fprintf(stderr, "uwb_sweep: internal error: %s\n", e.what());
    return farm::kExitRuntime;
  }
}
