// uwb_farm: fault-tolerant orchestration of sharded uwb_sweep runs.
//
//   uwb_farm run gen2_cm_grid --fast --shards 4 --run-dir runs/grid --out grid.json
//   uwb_farm resume runs/grid --out grid.json
//   uwb_farm merge runs/grid --out grid.json [--allow-partial]
//   uwb_farm status runs/grid
//   uwb_farm verify grid.json bench/expectations/grid.json
//   uwb_farm fixture grid.json grid.spec.json --out tests/fixtures/oracle/grid.json
//
// `run` expands the scenario once into <run-dir>/scenario.json, journals
// per-shard state in <run-dir>/state.json (atomic rewrites), and fans
// `uwb_sweep --file scenario.json --shard i/N` across supervised child
// processes: per-attempt timeout, bounded retry with exponential backoff +
// deterministic jitter, exit-code/signal classification (bad-args and
// spec-load failures don't retry; crashes, timeouts, and runtime errors
// do). A shard counts as done only after its result document validated
// against the plan. `resume` re-validates every checkpoint and runs only
// what's missing; the final --merge output is byte-identical to an
// uninterrupted unsharded run (cmp-tested). `verify` checks a result
// document against a declared-expectations JSON (docs/farm.md); `fixture`
// turns a high-budget result into the reference expectations test_oracle
// checks reruns against (tools/make_oracle_fixtures.sh).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "common/error.h"
#include "engine/scenario_registry.h"
#include "farm/exit_codes.h"
#include "farm/farm.h"
#include "farm/verify.h"
#include "io/file.h"
#include "io/spec_io.h"
#include "sim/ber_simulator.h"

namespace {

using namespace uwb;
using namespace uwb::cli;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  uwb_farm run <scenario|--file spec.json> [axis=value ...] \\\n"
               "      --run-dir DIR [options]\n"
               "      Expand the scenario, checkpoint it under DIR, and run every\n"
               "      shard through supervised uwb_sweep child processes.\n"
               "  uwb_farm resume <run-dir> [options]\n"
               "      Re-validate the checkpoints under <run-dir> and run only the\n"
               "      shards without a validated result.\n"
               "  uwb_farm merge <run-dir> --out PATH [--allow-partial]\n"
               "      Merge the validated shard results into PATH. Refuses unless\n"
               "      every shard is done, or --allow-partial is given.\n"
               "  uwb_farm status <run-dir>\n"
               "      Print the journal: per-shard status, attempts, outcomes.\n"
               "  uwb_farm verify <result.json> <expectations.json>\n"
               "      Check a result document against declared expectations\n"
               "      (metric ranges, monotonicity, accounting); nonzero on any\n"
               "      violated claim.\n"
               "  uwb_farm fixture <result.json> <scenario.json> --out PATH\n"
               "      Write a reference fixture: the result's per-point counts and\n"
               "      intervals, its seed, and the digest of the scenario document\n"
               "      it ran (uwb_sweep --dump-scenario), as expectations that\n"
               "      `verify` checks a rerun against.\n"
               "\n"
               "run options:\n"
               "  --shards N         shard count (default 2)\n"
               "  --seed S           sweep seed handed to every worker\n"
               "  --fast             shrink the stopping rule (as uwb_sweep --fast)\n"
               "  --min-errors E, --max-bits B, --max-trials T, --stop-metric M\n"
               "                     stopping rule (defaults: 40, 120000, 100000)\n"
               "  --workers-per-shard W\n"
               "                     worker threads per child (default: child decides)\n"
               "  --channel-cache D  forwarded to every worker\n"
               "  --progress         workers emit JSON heartbeat lines into their\n"
               "                     shard logs; `uwb_farm status` shows the latest\n"
               "                     one per live shard (journaled, survives resume)\n"
               "\n"
               "run/resume options:\n"
               "  --max-attempts K   attempts per shard before giving up (default 3)\n"
               "  --timeout SEC      per-attempt wall clock; exceeded -> SIGKILL and\n"
               "                     the attempt counts as failed (default: none)\n"
               "  --backoff SEC      first retry delay, doubling per retry with\n"
               "                     deterministic jitter (default 0.25)\n"
               "  --backoff-max SEC  retry delay ceiling (default 8)\n"
               "  --parallel P       concurrently live workers (default: all shards)\n"
               "  --worker BIN       uwb_sweep binary (default: next to uwb_farm)\n"
               "  --out PATH         merge into PATH after the shards finish\n"
               "  --allow-partial    degrade gracefully: merge the shards that\n"
               "                     succeeded even if some failed for good (the\n"
               "                     run still exits nonzero and the farm manifest\n"
               "                     says \"partial\")\n"
               "  --quiet            no per-shard progress on stderr\n"
               "\n"
               "exit codes: 0 complete; 1 incomplete run, failed merge, or failed\n"
               "verification; 2 bad arguments; 3 scenario spec failed to load.\n");
  return out == stdout ? farm::kExitOk : farm::kExitBadArgs;
}

struct Args {
  std::string command;
  std::string scenario;
  std::string spec_file;
  std::string run_dir;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<std::string> positional;  // resume/merge/status/verify/fixture operands
  bool fast = false;
  bool allow_partial = false;
  bool quiet = false;
  std::string out_path;
  std::string worker_binary;
  std::size_t parallel = 0;
  farm::FarmSpec spec;  // seed/stop/shards/retry filled from flags
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.spec.stop.min_errors = 40;
  args.spec.stop.max_bits = 120000;
  args.spec.stop.max_trials = 100000;
  args.spec.shard_count = 2;

  detail::require(argc >= 2, "missing command (run/resume/merge/status/verify/fixture)");
  args.command = argv[1];

  auto next = [&](int& i, const char* flag) -> std::string {
    detail::require(i + 1 < argc, std::string(flag) + " needs a value");
    return argv[++i];
  };

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--file") args.spec_file = next(i, "--file");
    else if (arg == "--run-dir") args.run_dir = next(i, "--run-dir");
    else if (arg == "--shards")
      args.spec.shard_count = parse_u64(next(i, "--shards"), "--shards");
    else if (arg == "--seed") args.spec.seed = parse_u64(next(i, "--seed"), "--seed");
    else if (arg == "--fast") args.fast = true;
    else if (arg == "--min-errors")
      args.spec.stop.min_errors = parse_u64(next(i, "--min-errors"), "--min-errors");
    else if (arg == "--max-bits")
      args.spec.stop.max_bits = parse_u64(next(i, "--max-bits"), "--max-bits");
    else if (arg == "--max-trials")
      args.spec.stop.max_trials = parse_u64(next(i, "--max-trials"), "--max-trials");
    else if (arg == "--stop-metric") args.spec.stop.metric = next(i, "--stop-metric");
    else if (arg == "--workers-per-shard")
      args.spec.workers_per_shard =
          parse_workers(next(i, "--workers-per-shard"), "--workers-per-shard");
    else if (arg == "--channel-cache") args.spec.channel_cache_dir = next(i, "--channel-cache");
    else if (arg == "--progress") args.spec.progress = true;
    else if (arg == "--max-attempts") {
      args.spec.retry.max_attempts = parse_u64(next(i, "--max-attempts"), "--max-attempts");
      detail::require(args.spec.retry.max_attempts >= 1, "--max-attempts needs K >= 1");
    }
    else if (arg == "--timeout")
      args.spec.retry.timeout_s = parse_positive_double(next(i, "--timeout"), "--timeout");
    else if (arg == "--backoff")
      args.spec.retry.backoff_base_s =
          parse_positive_double(next(i, "--backoff"), "--backoff");
    else if (arg == "--backoff-max")
      args.spec.retry.backoff_max_s =
          parse_positive_double(next(i, "--backoff-max"), "--backoff-max");
    else if (arg == "--parallel")
      args.parallel = parse_u64(next(i, "--parallel"), "--parallel");
    else if (arg == "--worker") args.worker_binary = next(i, "--worker");
    else if (arg == "--out") args.out_path = next(i, "--out");
    else if (arg == "--allow-partial") args.allow_partial = true;
    else if (arg == "--quiet") args.quiet = true;
    else if (arg == "--help" || arg == "-h") std::exit(usage(stdout));
    else if (arg.rfind("--", 0) == 0)
      throw InvalidArgument("unknown option '" + arg + "'");
    else if (args.command == "run" && arg.find('=') != std::string::npos) {
      const auto eq = arg.find('=');
      args.overrides.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (args.command == "run" && args.scenario.empty()) {
      args.scenario = arg;
    } else {
      args.positional.push_back(arg);
    }
  }
  if (args.fast) args.spec.stop = sim::scale_stop(args.spec.stop, 4, 8);
  sim::validate_budgets(args.spec.stop);
  return args;
}

/// The uwb_sweep binary: --worker wins, else the sibling of this
/// executable, else bare "uwb_sweep" (PATH lookup).
std::string resolve_worker(const Args& args) {
  if (!args.worker_binary.empty()) return args.worker_binary;
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n > 0) {
    buffer[n] = '\0';
    std::string path(buffer);
    const auto slash = path.rfind('/');
    if (slash != std::string::npos) {
      return path.substr(0, slash + 1) + "uwb_sweep";
    }
  }
  return "uwb_sweep";
}

/// Last JSON heartbeat line in the shard's most recent attempt log, or ""
/// when the log is missing or carries no `{"progress"...}` lines (workers
/// only emit them when the farm ran with --progress).
std::string last_heartbeat(const farm::RunPaths& paths, const farm::ShardState& shard) {
  if (shard.attempts == 0) return "";
  std::ifstream in(paths.shard_log(shard.index, shard.attempts));
  if (!in.good()) return "";
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (line.rfind("{\"progress\"", 0) == 0) last = line;
  }
  return last;
}

void print_status(const farm::FarmSpec& spec, const farm::FarmState& state,
                  const farm::RunPaths& paths) {
  std::size_t done = 0;
  for (const farm::ShardState& shard : state.shards) {
    if (shard.status == farm::ShardStatus::kDone) ++done;
  }
  std::fprintf(stdout, "%s: %zu/%zu shards done (%zu points, seed %llu)\n",
               spec.scenario.c_str(), done, state.shards.size(), spec.num_points,
               static_cast<unsigned long long>(spec.seed));
  for (const farm::ShardState& shard : state.shards) {
    std::fprintf(stdout, "  shard %zu: %-7s attempts=%zu%s%s\n", shard.index,
                 farm::to_string(shard.status).c_str(), shard.attempts,
                 shard.last_outcome.empty() ? "" : "  ",
                 shard.last_outcome.c_str());
    if (shard.status == farm::ShardStatus::kDone) {
      std::fprintf(stdout, "           wall=%.1fs trials=%llu points=%llu\n",
                   shard.wall_s, static_cast<unsigned long long>(shard.trials),
                   static_cast<unsigned long long>(shard.points));
    } else {
      // Live/failed shards: surface the worker's own latest heartbeat.
      const std::string beat = last_heartbeat(paths, shard);
      if (!beat.empty()) std::fprintf(stdout, "           last: %s\n", beat.c_str());
    }
  }
}

/// Supervise + manifest + optional merge; shared by run and resume.
int finish_run(const Args& args, const farm::FarmSpec& spec, farm::FarmState& state,
               const farm::RunPaths& paths) {
  farm::LocalExecTransport transport;
  const farm::FarmRunReport report =
      farm::run_shards(spec, state, paths, transport, resolve_worker(args),
                       args.parallel, args.quiet);
  farm::write_farm_manifest(spec, state, paths);

  if (!report.complete()) {
    std::fprintf(stderr, "uwb_farm: %zu/%zu shards done, %zu failed for good\n",
                 report.done, state.shards.size(), report.failed);
    if (!args.out_path.empty() && args.allow_partial && report.done > 0) {
      farm::merge_run(spec, state, paths, args.out_path, /*allow_partial=*/true);
      std::fprintf(stderr, "uwb_farm: PARTIAL merge (%zu shards) -> %s\n",
                   report.done, args.out_path.c_str());
    } else if (!args.out_path.empty()) {
      std::fprintf(stderr,
                   "uwb_farm: refusing to merge an incomplete run without "
                   "--allow-partial; `uwb_farm resume %s` to retry\n",
                   paths.run_dir.c_str());
    }
    return farm::kExitRuntime;
  }

  if (!args.quiet) {
    std::fprintf(stderr, "uwb_farm: all %zu shards done\n", report.done);
  }
  if (!args.out_path.empty()) {
    farm::merge_run(spec, state, paths, args.out_path);
    std::fprintf(stderr, "uwb_farm: merged %zu shards -> %s\n", report.done,
                 args.out_path.c_str());
  }
  return farm::kExitOk;
}

int run_new(const Args& args) {
  detail::require(!args.run_dir.empty(), "run needs --run-dir");
  detail::require(!args.scenario.empty() || !args.spec_file.empty(),
                  "run needs a scenario name or --file");
  detail::require(args.scenario.empty() || args.spec_file.empty(),
                  "give either a scenario name or --file, not both");

  engine::ScenarioSpec scenario;
  try {
    if (!args.spec_file.empty()) {
      scenario = io::load_scenario_file(args.spec_file);
    } else {
      scenario = engine::ScenarioRegistry::global().make(args.scenario);
    }
    for (const auto& [axis, values] : args.overrides) {
      engine::restrict_scenario(scenario, axis, values);
    }
  } catch (const uwb::Error& e) {
    std::fprintf(stderr, "uwb_farm: %s\n", e.what());
    return farm::kExitSpecLoad;
  }

  const farm::RunPaths paths{args.run_dir};
  farm::FarmSpec spec = args.spec;
  spec.scenario = scenario.name;
  farm::init_run(scenario, spec, paths);
  if (!args.quiet) {
    std::fprintf(stderr, "uwb_farm: %zu points x %zu shards -> %s\n",
                 spec.num_points, spec.shard_count, args.run_dir.c_str());
  }
  farm::FarmState state = farm::load_farm_state(paths.state_json());
  return finish_run(args, spec, state, paths);
}

int run_resume(const Args& args) {
  detail::require(args.positional.size() == 1, "resume needs exactly one <run-dir>");
  const farm::RunPaths paths{args.positional.front()};
  farm::LoadedRun run = farm::load_run(paths);
  // --timeout may be tightened/loosened per invocation; plan identity
  // (scenario, seed, stop, shards) always comes from the checkpoint.
  if (args.spec.retry.timeout_s > 0.0) run.spec.retry.timeout_s = args.spec.retry.timeout_s;
  return finish_run(args, run.spec, run.state, paths);
}

int run_merge_cmd(const Args& args) {
  detail::require(args.positional.size() == 1, "merge needs exactly one <run-dir>");
  detail::require(!args.out_path.empty(), "merge needs --out");
  const farm::RunPaths paths{args.positional.front()};
  const farm::LoadedRun run = farm::load_run(paths);
  farm::merge_run(run.spec, run.state, paths, args.out_path, args.allow_partial);
  std::size_t done = 0;
  for (const farm::ShardState& shard : run.state.shards) {
    if (shard.status == farm::ShardStatus::kDone) ++done;
  }
  std::fprintf(stderr, "uwb_farm: merged %zu shards -> %s%s\n", done,
               args.out_path.c_str(),
               done == run.state.shards.size() ? "" : " (PARTIAL)");
  return done == run.state.shards.size() ? farm::kExitOk : farm::kExitRuntime;
}

int run_status(const Args& args) {
  detail::require(args.positional.size() == 1, "status needs exactly one <run-dir>");
  const farm::RunPaths paths{args.positional.front()};
  const farm::FarmSpec spec = farm::load_farm_spec(paths.farm_json());
  const farm::FarmState state = farm::load_farm_state(paths.state_json());
  print_status(spec, state, paths);
  return farm::kExitOk;
}

int run_verify(const Args& args) {
  detail::require(args.positional.size() == 2,
                  "verify needs <result.json> <expectations.json>");
  const farm::VerifyReport report =
      farm::verify_result_files(args.positional[0], args.positional[1]);
  if (!report.ok()) {
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "uwb_farm: %zu claim(s) violated (%zu checks)\n",
                 report.failures.size(), report.checks);
    return farm::kExitRuntime;
  }
  std::fprintf(stderr, "uwb_farm: all %zu checks passed\n", report.checks);
  return farm::kExitOk;
}

int run_fixture(const Args& args) {
  detail::require(args.positional.size() == 2, "fixture needs <result.json> <scenario.json>");
  detail::require(!args.out_path.empty(), "fixture needs --out PATH");
  const io::ResultDoc doc = io::parse_result_json(io::read_file(args.positional[0], "fixture"));
  const std::string spec_text = io::read_file(args.positional[1], "fixture");
  detail::require(io::scenario_from_json_text(spec_text).name == doc.scenario,
                  "fixture: the scenario document does not name the result's scenario '" +
                      doc.scenario + "'");
  io::write_file(args.out_path, farm::reference_fixture(doc, spec_text), "fixture");
  std::fprintf(stderr, "uwb_farm: %zu reference points -> %s\n", doc.points.size(),
               args.out_path.c_str());
  return farm::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    detail::require(args.command == "run" || args.command == "resume" ||
                        args.command == "merge" || args.command == "status" ||
                        args.command == "verify" || args.command == "fixture",
                    "unknown command '" + args.command + "'");
  } catch (const uwb::Error& e) {
    std::fprintf(stderr, "uwb_farm: %s\n", e.what());
    usage(stderr);
    return farm::kExitBadArgs;
  }
  try {
    if (args.command == "run") return run_new(args);
    if (args.command == "resume") return run_resume(args);
    if (args.command == "merge") return run_merge_cmd(args);
    if (args.command == "status") return run_status(args);
    if (args.command == "fixture") return run_fixture(args);
    return run_verify(args);
  } catch (const uwb::Error& e) {
    std::fprintf(stderr, "uwb_farm: %s\n", e.what());
    return farm::kExitRuntime;
  } catch (const std::exception& e) {
    // Anything the validators did not anticipate (an allocation failure,
    // a filesystem error) is still a runtime failure, never an abort.
    std::fprintf(stderr, "uwb_farm: internal error: %s\n", e.what());
    return farm::kExitRuntime;
  }
}
