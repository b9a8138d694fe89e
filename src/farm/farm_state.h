#pragma once
/// \file farm_state.h
/// \brief The farm's on-disk checkpoint store: a versioned run directory
///        that makes a killed farm resumable instead of recomputable.
///
/// Layout of a run directory (everything strict io::json, versioned like
/// the .cir sidecars -- a version bump or tampered file fails resume
/// loudly instead of guessing):
///
///   <run_dir>/farm.json          the FarmSpec: how this run is configured
///                                (seed, stop rule, shard count, retry
///                                policy). Written once at init.
///   <run_dir>/scenario.json      the fully expanded scenario plan every
///                                worker runs (`uwb_sweep --file`). Written
///                                once at init; its FNV-1a digest is pinned
///                                in state.json so a swapped plan cannot
///                                silently merge with old shard results.
///   <run_dir>/state.json         the journal: per-shard status/attempts,
///                                rewritten atomically (tmp + rename) after
///                                every state transition.
///   <run_dir>/shards/shard_<i>.json      completed shard result documents
///                                        (plus uwb_sweep's .run.json
///                                        manifest sidecars).
///   <run_dir>/logs/shard_<i>.a<k>.log    per-attempt worker stdout+stderr.
///   <run_dir>/manifest.json      the farm-level manifest: run status
///                                (complete vs partial), per-shard
///                                attempts/wall/trials aggregated from the
///                                workers' obs::RunManifest sidecars.
///
/// A shard is `done` only after its result file parsed and validated
/// against the plan (header match + exactly the indices i mod N). Resume
/// re-validates every `done` shard, so a checkpoint tampered with between
/// runs is caught before it can poison a merge.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario_registry.h"
#include "io/json.h"
#include "sim/ber_simulator.h"

namespace uwb::farm {

/// Format version of farm.json/state.json; a mismatch fails resume loudly.
inline constexpr int kFarmFormatVersion = 1;

/// Bounded-retry policy for one shard process.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< total attempts (1 = never retry)
  double timeout_s = 0.0;        ///< per-attempt wall clock; 0 = unlimited
  double backoff_base_s = 0.25;  ///< first retry delay (doubles per retry)
  double backoff_max_s = 8.0;    ///< backoff ceiling before jitter

  [[nodiscard]] bool operator==(const RetryPolicy&) const = default;
};

/// Retry delay before attempt \p next_attempt (2, 3, ...) of \p shard:
/// exponential backoff capped at backoff_max_s, scaled by a deterministic
/// jitter factor in [0.5, 1.5) drawn from (seed, shard, attempt) -- so
/// retries of many shards spread out instead of stampeding, yet tests can
/// predict every delay.
[[nodiscard]] double backoff_delay_s(const RetryPolicy& retry, std::uint64_t seed,
                                     std::size_t shard, std::size_t next_attempt);

/// Everything that configures a farm run (written once to farm.json).
struct FarmSpec {
  std::string scenario;  ///< expanded plan's display name
  /// Sweep seed handed to every worker (default = the engine default, so
  /// a farm run with no --seed matches a plain uwb_sweep run exactly).
  std::uint64_t seed = 0x5eed'0000'cafe'f00dULL;
  sim::BerStop stop;               ///< stop rule handed to every worker
  std::size_t shard_count = 1;
  std::size_t num_points = 0;      ///< points in the expanded plan
  std::size_t workers_per_shard = 0;  ///< uwb_sweep --workers (0 = default)
  std::string channel_cache_dir;   ///< worker --channel-cache ("" = none)
  /// Workers run with `--progress --progress-format json`: their logs then
  /// carry machine-readable heartbeat lines that `uwb_farm status`
  /// aggregates into live per-shard progress. Journaled so resume keeps
  /// streaming.
  bool progress = false;
  RetryPolicy retry;

  [[nodiscard]] bool operator==(const FarmSpec&) const = default;
};

enum class ShardStatus { kPending, kDone, kFailed };

/// The status's journal name: "pending", "done" or "failed".
[[nodiscard]] std::string to_string(ShardStatus status);

/// One shard's journaled state.
struct ShardState {
  std::size_t index = 0;
  ShardStatus status = ShardStatus::kPending;
  std::size_t attempts = 0;     ///< attempts launched so far
  std::string last_outcome;     ///< "ok", "signal 9", "timeout", "exit 3", ...
  double wall_s = 0.0;          ///< successful attempt's wall clock
  std::uint64_t trials = 0;     ///< total trials in the shard's result doc
  std::uint64_t points = 0;     ///< points in the shard's result doc
  /// FNV-1a of the validated result file's bytes, journaled when the shard
  /// goes done; resume re-digests the file, so *any* byte flipped in a
  /// checkpointed result between runs fails the load (not just header or
  /// coverage edits).
  std::uint64_t digest = 0;

  [[nodiscard]] bool operator==(const ShardState&) const = default;
};

/// The whole journal (state.json).
struct FarmState {
  std::uint64_t plan_digest = 0;  ///< FNV-1a of scenario.json's bytes
  std::vector<ShardState> shards;

  [[nodiscard]] bool operator==(const FarmState&) const = default;
};

/// FNV-1a 64-bit over raw bytes -- the digest pinning scenario.json.
[[nodiscard]] std::uint64_t fnv1a_digest(const std::string& bytes);

/// Conventional file locations under a run directory.
struct RunPaths {
  std::string run_dir;

  [[nodiscard]] std::string farm_json() const { return run_dir + "/farm.json"; }
  [[nodiscard]] std::string state_json() const { return run_dir + "/state.json"; }
  [[nodiscard]] std::string scenario_json() const { return run_dir + "/scenario.json"; }
  [[nodiscard]] std::string manifest_json() const { return run_dir + "/manifest.json"; }
  [[nodiscard]] std::string shards_dir() const { return run_dir + "/shards"; }
  [[nodiscard]] std::string logs_dir() const { return run_dir + "/logs"; }
  [[nodiscard]] std::string shard_result(std::size_t shard) const {
    return shards_dir() + "/shard_" + std::to_string(shard) + ".json";
  }
  [[nodiscard]] std::string shard_log(std::size_t shard, std::size_t attempt) const {
    return logs_dir() + "/shard_" + std::to_string(shard) + ".a" +
           std::to_string(attempt) + ".log";
  }
};

// ------------------------------------------------------------ (de)serial ----

/// Strict round-tripping serialization through io/fields.h lists
/// (farm_state.cpp): from_json throws InvalidArgument on an unknown key, a
/// missing key, or a version mismatch. The one optional key is the spec's
/// `progress`, which format-1 files written before it existed lack.
[[nodiscard]] io::JsonValue farm_spec_to_json(const FarmSpec& spec);
[[nodiscard]] FarmSpec farm_spec_from_json(const io::JsonValue& v);
[[nodiscard]] io::JsonValue farm_state_to_json(const FarmState& state);
[[nodiscard]] FarmState farm_state_from_json(const io::JsonValue& v);

// ----------------------------------------------------------------- files ----

/// Writes \p content to \p path via a temp file + atomic rename, creating
/// parent directories -- a crash mid-write can never leave a truncated
/// journal behind.
void write_file_atomic(const std::string& path, const std::string& content);

void save_farm_spec(const FarmSpec& spec, const std::string& path);
[[nodiscard]] FarmSpec load_farm_spec(const std::string& path);
void save_farm_state(const FarmState& state, const std::string& path);
[[nodiscard]] FarmState load_farm_state(const std::string& path);

}  // namespace uwb::farm
