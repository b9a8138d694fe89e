#include "farm/farm.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "io/file.h"
#include "io/result_io.h"
#include "io/spec_io.h"

namespace uwb::farm {

void init_run(const engine::ScenarioSpec& scenario, FarmSpec& spec,
              const RunPaths& paths) {
  detail::require(!std::filesystem::exists(paths.farm_json()),
                  "farm: '" + paths.farm_json() +
                      "' already exists -- use `uwb_farm resume " + paths.run_dir +
                      "` to continue it, or pick a fresh --run-dir");
  detail::require(spec.shard_count >= 1, "farm: shard count must be >= 1");
  spec.num_points = scenario.points.size();
  detail::require(spec.num_points >= 1, "farm: the scenario plan has no points");
  detail::require(spec.shard_count <= spec.num_points,
                  "farm: " + std::to_string(spec.shard_count) + " shards for " +
                      std::to_string(spec.num_points) +
                      " points would leave empty shards");

  io::save_scenario_file(scenario, paths.scenario_json());
  save_farm_spec(spec, paths.farm_json());

  FarmState state;
  state.plan_digest = fnv1a_digest(io::read_file(paths.scenario_json(), "farm"));
  state.shards.resize(spec.shard_count);
  for (std::size_t i = 0; i < spec.shard_count; ++i) state.shards[i].index = i;
  save_farm_state(state, paths.state_json());
}

void validate_shard_result(const FarmSpec& spec, std::size_t shard,
                           const std::string& path) {
  const auto fail = [&](const std::string& why) {
    throw InvalidArgument("farm: shard " + std::to_string(shard) + " result '" +
                          path + "' " + why);
  };
  io::ResultDoc doc;
  try {
    doc = io::parse_result_json(io::read_file(path, "farm"));
  } catch (const Error& e) {
    fail(std::string("is unreadable or corrupt: ") + e.what());
  }
  if (doc.scenario != spec.scenario) {
    fail("is from scenario '" + doc.scenario + "', expected '" + spec.scenario + "'");
  }
  if (doc.seed != spec.seed) fail("was run under a different seed");
  if (doc.stop != spec.stop) fail("was run under a different stop rule");

  std::size_t expected = 0;
  std::size_t cursor = 0;
  for (std::size_t p = shard; p < spec.num_points; p += spec.shard_count) {
    ++expected;
    if (cursor < doc.points.size() && doc.points[cursor].index == p) ++cursor;
  }
  if (cursor != doc.points.size() || doc.points.size() != expected) {
    fail("covers " + std::to_string(doc.points.size()) + " points, expected the " +
         std::to_string(expected) + " plan indices congruent to " +
         std::to_string(shard) + " mod " + std::to_string(spec.shard_count) +
         " -- an interrupted or foreign checkpoint cannot be journaled done");
  }
}

LoadedRun load_run(const RunPaths& paths) {
  LoadedRun run;
  run.spec = load_farm_spec(paths.farm_json());
  run.state = load_farm_state(paths.state_json());
  detail::require(run.state.shards.size() == run.spec.shard_count,
                  "farm: state.json journals " +
                      std::to_string(run.state.shards.size()) +
                      " shards but farm.json declares " +
                      std::to_string(run.spec.shard_count));
  const std::uint64_t digest = fnv1a_digest(io::read_file(paths.scenario_json(), "farm"));
  detail::require(
      digest == run.state.plan_digest,
      "farm: '" + paths.scenario_json() +
          "' does not match the plan this run was checkpointed with (digest "
          "mismatch) -- resuming would merge results from different sweeps");
  for (const ShardState& shard : run.state.shards) {
    if (shard.status != ShardStatus::kDone) continue;
    const std::string result_path = paths.shard_result(shard.index);
    validate_shard_result(run.spec, shard.index, result_path);
    detail::require(fnv1a_digest(io::read_file(result_path, "farm")) == shard.digest,
                    "farm: shard " + std::to_string(shard.index) + " result '" +
                        result_path +
                        "' does not match the digest it was journaled done with -- "
                        "the checkpoint was modified since; refusing to merge it");
  }
  return run;
}

std::vector<std::string> worker_argv(const FarmSpec& spec, const RunPaths& paths,
                                     const std::string& worker_binary,
                                     std::size_t shard) {
  std::vector<std::string> argv = {
      worker_binary,
      "--file", paths.scenario_json(),
      "--seed", std::to_string(spec.seed),
      "--min-errors", std::to_string(spec.stop.min_errors),
      "--max-bits", std::to_string(spec.stop.max_bits),
      "--max-trials", std::to_string(spec.stop.max_trials),
  };
  if (!spec.stop.metric.empty()) {
    argv.push_back("--stop-metric");
    argv.push_back(spec.stop.metric);
  }
  argv.push_back("--shard");
  argv.push_back(std::to_string(shard) + "/" + std::to_string(spec.shard_count));
  if (spec.workers_per_shard > 0) {
    argv.push_back("--workers");
    argv.push_back(std::to_string(spec.workers_per_shard));
  }
  if (!spec.channel_cache_dir.empty()) {
    argv.push_back("--channel-cache");
    argv.push_back(spec.channel_cache_dir);
  }
  if (spec.progress) {
    // JSON heartbeat lines land in the shard's log file, where `uwb_farm
    // status` aggregates the latest one per live shard.
    argv.push_back("--progress");
    argv.push_back("--progress-format");
    argv.push_back("json");
  }
  argv.push_back("--quiet");
  argv.push_back("--out");
  argv.push_back(paths.shard_result(shard));
  return argv;
}

FarmRunReport run_shards(const FarmSpec& spec, FarmState& state,
                         const RunPaths& paths, ExecTransport& transport,
                         const std::string& worker_binary,
                         std::size_t max_parallel, bool quiet) {
  std::mutex mu;  // guards `state` and the journal file
  const auto journal = [&](std::size_t shard, const auto& mutate) {
    const std::lock_guard<std::mutex> lock(mu);
    mutate(state.shards[shard]);
    save_farm_state(state, paths.state_json());
  };
  const auto note = [&](const char* fmt, std::size_t shard, const std::string& text) {
    if (quiet) return;
    const std::lock_guard<std::mutex> lock(mu);
    std::fprintf(stderr, fmt, shard, text.c_str());
  };

  std::vector<std::size_t> todo;
  for (const ShardState& shard : state.shards) {
    if (shard.status != ShardStatus::kDone) todo.push_back(shard.index);
  }
  if (todo.empty()) return {state.shards.size(), 0};

  std::atomic<std::size_t> next{0};
  const auto supervise = [&]() {
    for (;;) {
      const std::size_t claim = next.fetch_add(1);
      if (claim >= todo.size()) return;
      const std::size_t shard = todo[claim];

      // attempts counts cumulatively across farm invocations (so logs and
      // the journal tell the whole story), but the retry *budget* is per
      // invocation -- otherwise a resume could find its failed shards
      // already out of attempts and silently do nothing.
      const std::size_t prior = state.shards[shard].attempts;  // no lock: only we write it now
      std::size_t attempt = prior;
      while (attempt - prior < spec.retry.max_attempts) {
        ++attempt;
        if (attempt > 1) {
          const double delay = backoff_delay_s(spec.retry, spec.seed, shard, attempt);
          note("farm: shard %zu backing off %s\n", shard,
               std::to_string(delay).substr(0, 5) + "s before retry");
          sleep_s(delay);
        }
        journal(shard, [&](ShardState& s) {
          s.status = ShardStatus::kPending;
          s.attempts = attempt;
          s.last_outcome = "running";
        });

        const auto t0 = std::chrono::steady_clock::now();
        const ExitStatus status =
            transport.run(worker_argv(spec, paths, worker_binary, shard), {},
                          paths.shard_log(shard, attempt), spec.retry.timeout_s);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();

        std::string outcome = status.describe();
        if (status.ok()) {
          // Exit 0 is a claim, not proof: validate before journaling done.
          try {
            validate_shard_result(spec, shard, paths.shard_result(shard));
          } catch (const Error& e) {
            outcome = std::string("invalid result: ") + e.what();
            journal(shard, [&](ShardState& s) {
              s.status = ShardStatus::kFailed;
              s.last_outcome = outcome;
            });
            note("farm: shard %zu attempt failed (%s)\n", shard, outcome);
            continue;  // a corrupt claim of success is transient: retry
          }
          std::uint64_t trials = 0;
          const std::string result_bytes = io::read_file(paths.shard_result(shard), "farm");
          const io::ResultDoc doc = io::parse_result_json(result_bytes);
          for (const io::ResultPoint& point : doc.points) trials += point.trials;
          journal(shard, [&](ShardState& s) {
            s.status = ShardStatus::kDone;
            s.last_outcome = "ok";
            s.wall_s = wall;
            s.trials = trials;
            s.points = doc.points.size();
            s.digest = fnv1a_digest(result_bytes);
          });
          note("farm: shard %zu %s\n", shard, "done");
          break;
        }

        const bool retryable = is_transient(status);
        journal(shard, [&](ShardState& s) {
          s.status = ShardStatus::kFailed;
          s.last_outcome = outcome;
        });
        note("farm: shard %zu attempt failed (%s)\n", shard, outcome);
        if (!retryable) {
          note("farm: shard %zu %s\n", shard,
               "failed permanently (" + outcome + "), not retrying");
          break;
        }
      }
    }
  };

  std::size_t parallel = max_parallel == 0 ? todo.size() : max_parallel;
  if (parallel > todo.size()) parallel = todo.size();
  std::vector<std::thread> threads;
  threads.reserve(parallel);
  for (std::size_t t = 0; t < parallel; ++t) threads.emplace_back(supervise);
  for (std::thread& thread : threads) thread.join();

  FarmRunReport report;
  for (const ShardState& shard : state.shards) {
    if (shard.status == ShardStatus::kDone) ++report.done;
    else ++report.failed;
  }
  return report;
}

void merge_run(const FarmSpec& spec, const FarmState& state, const RunPaths& paths,
               const std::string& out_path, bool allow_partial) {
  std::vector<io::ResultDoc> docs;
  std::size_t missing = 0;
  for (const ShardState& shard : state.shards) {
    if (shard.status == ShardStatus::kDone) {
      docs.push_back(io::parse_result_json(
          io::read_file(paths.shard_result(shard.index), "farm")));
    } else {
      ++missing;
    }
  }
  detail::require(missing == 0 || allow_partial,
                  "farm: " + std::to_string(missing) +
                      " shard(s) have no validated result -- resume the run, or "
                      "merge --allow-partial to accept a degraded document");
  detail::require(!docs.empty(), "farm: no shard has a validated result to merge");
  const io::ResultDoc merged = io::merge_results(docs, /*allow_partial=*/missing > 0);
  // A complete farm merge must account for every plan point; this closes
  // the missing-tail case the dense-index check alone cannot see.
  detail::require(missing > 0 || merged.points.size() == spec.num_points,
                  "farm: merged " + std::to_string(merged.points.size()) +
                      " points but the plan has " + std::to_string(spec.num_points));
  write_file_atomic(out_path, io::write_result_json(merged));
}

void write_farm_manifest(const FarmSpec& spec, const FarmState& state,
                         const RunPaths& paths) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("version", io::JsonValue::number(kFarmFormatVersion));
  std::size_t done = 0;
  for (const ShardState& shard : state.shards) {
    if (shard.status == ShardStatus::kDone) ++done;
  }
  doc.set("status", io::JsonValue::string(done == state.shards.size() ? "complete"
                                                                      : "partial"));
  doc.set("scenario", io::JsonValue::string(spec.scenario));
  doc.set("seed", io::JsonValue::number(spec.seed));
  doc.set("shard_count",
          io::JsonValue::number(static_cast<std::uint64_t>(spec.shard_count)));
  doc.set("shards_done", io::JsonValue::number(static_cast<std::uint64_t>(done)));
  io::JsonValue shards = io::JsonValue::array();
  std::uint64_t total_trials = 0;
  for (const ShardState& shard : state.shards) {
    io::JsonValue entry = io::JsonValue::object();
    entry.set("index", io::JsonValue::number(static_cast<std::uint64_t>(shard.index)));
    entry.set("status", io::JsonValue::string(to_string(shard.status)));
    entry.set("attempts",
              io::JsonValue::number(static_cast<std::uint64_t>(shard.attempts)));
    entry.set("last_outcome", io::JsonValue::string(shard.last_outcome));
    entry.set("wall_s", io::JsonValue::number(shard.wall_s));
    entry.set("trials", io::JsonValue::number(shard.trials));
    entry.set("points", io::JsonValue::number(shard.points));
    shards.push_back(std::move(entry));
    total_trials += shard.trials;
  }
  doc.set("total_trials", io::JsonValue::number(total_trials));
  doc.set("shards", std::move(shards));
  write_file_atomic(paths.manifest_json(), io::dump_json_pretty(doc) + "\n");
}

}  // namespace uwb::farm
