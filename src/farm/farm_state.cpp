#include "farm/farm_state.h"

#include <filesystem>

#include "common/error.h"
#include "common/rng.h"
#include "engine/thread_pool.h"
#include "io/fields.h"
#include "io/file.h"
#include "io/spec_io.h"

namespace uwb::farm {

namespace {

constexpr io::Named<ShardStatus> kShardStatuses[] = {{ShardStatus::kPending, "pending"},
                                                     {ShardStatus::kDone, "done"},
                                                     {ShardStatus::kFailed, "failed"}};

constexpr io::Document kFarmSpecDoc{"farm spec", io::Missing::kThrow};
constexpr io::Document kFarmStateDoc{"farm state", io::Missing::kThrow};

void check_version(const char* what, int version) {
  detail::require(
      version == kFarmFormatVersion,
      std::string("farm ") + what + ": format version " + std::to_string(version) +
          " does not match this binary's version " + std::to_string(kFarmFormatVersion) +
          " -- re-run the sweep with matching tools instead of mixing checkpoints");
}

}  // namespace

double backoff_delay_s(const RetryPolicy& retry, std::uint64_t seed, std::size_t shard,
                       std::size_t next_attempt) {
  double delay = retry.backoff_base_s;
  for (std::size_t a = 2; a < next_attempt && delay < retry.backoff_max_s; ++a) {
    delay *= 2.0;
  }
  if (delay > retry.backoff_max_s) delay = retry.backoff_max_s;
  // Deterministic jitter in [0.5, 1.5): spreads retry stampedes while
  // keeping every delay a pure function of (seed, shard, attempt).
  Rng rng(seed ^ 0xFA12'0000'0000'0000ULL);
  const double jitter =
      0.5 + rng.fork(shard).fork(next_attempt).uniform();
  return delay * jitter;
}

std::string to_string(ShardStatus status) { return io::name_of(kShardStatuses, status); }

std::uint64_t fnv1a_digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace uwb::farm

// ------------------------------------------------------------ field lists ----

namespace uwb::io {

template <typename V>
void fields(V& v, Of<farm::RetryPolicy> auto& r) {
  v("max_attempts", r.max_attempts);
  v("timeout_s", r.timeout_s);
  v("backoff_base_s", r.backoff_base_s);
  v("backoff_max_s", r.backoff_max_s);
}

template <typename V>
void fields(V& v, Of<farm::FarmSpec> auto& s) {
  v("scenario", s.scenario);
  v("seed", s.seed);
  v("stop", s.stop);
  v("shard_count", s.shard_count);
  v("num_points", s.num_points);
  v("workers_per_shard", s.workers_per_shard);
  v("channel_cache_dir", s.channel_cache_dir);
  // Optional: absent from format-1 files written before the field existed.
  v.optional("progress", s.progress);
  v("retry", s.retry);
}

template <typename V>
void fields(V& v, Of<farm::ShardState> auto& s) {
  v("index", s.index);
  v("status", s.status, farm::kShardStatuses);
  v("attempts", s.attempts);
  v("last_outcome", s.last_outcome);
  v("wall_s", s.wall_s);
  v("trials", s.trials);
  v("points", s.points);
  v("digest", s.digest, kHexDigest);
}

template <typename V>
void fields(V& v, Of<farm::FarmState> auto& s) {
  v("plan_digest", s.plan_digest, kHexDigest);
  v("shards", s.shards);
}

}  // namespace uwb::io

namespace uwb::farm {

// ---------------------------------------------------- farm.json, state.json ----
// Each file holds its format version, then the struct's fields.

io::JsonValue farm_spec_to_json(const FarmSpec& spec) {
  return io::write_object([&](auto& w) {
    w("version", kFarmFormatVersion);
    fields(w, spec);
  });
}

FarmSpec farm_spec_from_json(const io::JsonValue& v) {
  FarmSpec spec;
  io::read_object(v, kFarmSpecDoc, nullptr, [&](auto& r) {
    int version = 0;
    r("version", version);
    check_version("spec", version);
    fields(r, spec);
  });
  sim::validate_budgets(spec.stop);
  detail::require(spec.retry.max_attempts >= 1, "farm retry policy: max_attempts must be >= 1");
  detail::require(spec.shard_count >= 1, "farm spec: shard_count must be >= 1");
  detail::require(spec.workers_per_shard <= engine::kMaxWorkers,
                  "farm spec: workers_per_shard must be <= " +
                      std::to_string(engine::kMaxWorkers));
  return spec;
}

io::JsonValue farm_state_to_json(const FarmState& state) {
  return io::write_object([&](auto& w) {
    w("version", kFarmFormatVersion);
    fields(w, state);
  });
}

FarmState farm_state_from_json(const io::JsonValue& v) {
  FarmState state;
  io::read_object(v, kFarmStateDoc, nullptr, [&](auto& r) {
    int version = 0;
    r("version", version);
    check_version("state", version);
    fields(r, state);
  });
  for (std::size_t i = 0; i < state.shards.size(); ++i) {
    detail::require(state.shards[i].index == i,
                    "farm state: shard entries out of order or missing (entry " +
                        std::to_string(i) + " has index " +
                        std::to_string(state.shards[i].index) + ")");
  }
  return state;
}

// ------------------------------------------------------------------ files ----

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  io::write_file(tmp, content, "farm");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  detail::require(!ec, "farm: rename '" + tmp + "' -> '" + path + "' failed: " +
                           ec.message());
}

void save_farm_spec(const FarmSpec& spec, const std::string& path) {
  write_file_atomic(path, io::dump_json_pretty(farm_spec_to_json(spec)) + "\n");
}

FarmSpec load_farm_spec(const std::string& path) {
  try {
    return farm_spec_from_json(io::parse_json(io::read_file(path, "farm")));
  } catch (const Error& e) {
    throw InvalidArgument("farm: loading '" + path + "': " + e.what());
  }
}

void save_farm_state(const FarmState& state, const std::string& path) {
  write_file_atomic(path, io::dump_json_pretty(farm_state_to_json(state)) + "\n");
}

FarmState load_farm_state(const std::string& path) {
  try {
    return farm_state_from_json(io::parse_json(io::read_file(path, "farm")));
  } catch (const Error& e) {
    throw InvalidArgument("farm: loading '" + path + "': " + e.what());
  }
}

}  // namespace uwb::farm
