#include "farm/farm_state.h"

#include <cstdio>
#include <filesystem>

#include "common/error.h"
#include "common/rng.h"
#include "engine/thread_pool.h"
#include "io/file.h"
#include "io/spec_io.h"

namespace uwb::farm {

namespace {

[[noreturn]] void unknown_key(const char* what, const std::string& key) {
  throw InvalidArgument(std::string("farm ") + what + ": unknown key '" + key + "'");
}

std::size_t as_size(const io::JsonValue& v) {
  return static_cast<std::size_t>(v.as_uint64());
}

std::string digest_hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
  return text;
}

std::uint64_t digest_from_hex(const char* what, const std::string& text) {
  detail::require(text.size() == 16 &&
                      text.find_first_not_of("0123456789abcdef") == std::string::npos,
                  std::string("farm state: malformed ") + what + " '" + text + "'");
  return std::stoull(text, nullptr, 16);
}

void check_version(const char* what, const io::JsonValue& doc) {
  const io::JsonValue* version = doc.find("version");
  detail::require(version != nullptr,
                  std::string("farm ") + what + ": missing format version");
  detail::require(
      version->as_int() == kFarmFormatVersion,
      std::string("farm ") + what + ": format version " +
          version->number_text() + " does not match this binary's version " +
          std::to_string(kFarmFormatVersion) +
          " -- re-run the sweep with matching tools instead of mixing checkpoints");
}

io::JsonValue retry_to_json(const RetryPolicy& retry) {
  io::JsonValue out = io::JsonValue::object();
  out.set("max_attempts", io::JsonValue::number(static_cast<std::uint64_t>(retry.max_attempts)));
  out.set("timeout_s", io::JsonValue::number(retry.timeout_s));
  out.set("backoff_base_s", io::JsonValue::number(retry.backoff_base_s));
  out.set("backoff_max_s", io::JsonValue::number(retry.backoff_max_s));
  return out;
}

RetryPolicy retry_from_json(const io::JsonValue& v) {
  RetryPolicy retry;
  for (const auto& [key, val] : v.members()) {
    if (key == "max_attempts") retry.max_attempts = as_size(val);
    else if (key == "timeout_s") retry.timeout_s = val.as_double();
    else if (key == "backoff_base_s") retry.backoff_base_s = val.as_double();
    else if (key == "backoff_max_s") retry.backoff_max_s = val.as_double();
    else unknown_key("retry policy", key);
  }
  detail::require(retry.max_attempts >= 1, "farm retry policy: max_attempts must be >= 1");
  return retry;
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

std::string to_string(ShardStatus status) {
  switch (status) {
    case ShardStatus::kPending: return "pending";
    case ShardStatus::kDone: return "done";
    case ShardStatus::kFailed: return "failed";
  }
  return "?";
}

ShardStatus shard_status_from_string(const std::string& name) {
  if (name == "pending") return ShardStatus::kPending;
  if (name == "done") return ShardStatus::kDone;
  if (name == "failed") return ShardStatus::kFailed;
  throw InvalidArgument("farm state: unknown shard status '" + name + "'");
}

std::uint64_t fnv1a_digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --------------------------------------------------------------- FarmSpec ----

io::JsonValue farm_spec_to_json(const FarmSpec& spec) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("version", io::JsonValue::number(kFarmFormatVersion));
  doc.set("scenario", io::JsonValue::string(spec.scenario));
  doc.set("seed", io::JsonValue::number(spec.seed));
  doc.set("stop", io::to_json(spec.stop));
  doc.set("shard_count", io::JsonValue::number(static_cast<std::uint64_t>(spec.shard_count)));
  doc.set("num_points", io::JsonValue::number(static_cast<std::uint64_t>(spec.num_points)));
  doc.set("workers_per_shard",
          io::JsonValue::number(static_cast<std::uint64_t>(spec.workers_per_shard)));
  doc.set("channel_cache_dir", io::JsonValue::string(spec.channel_cache_dir));
  doc.set("progress", io::JsonValue::boolean(spec.progress));
  doc.set("retry", retry_to_json(spec.retry));
  return doc;
}

FarmSpec farm_spec_from_json(const io::JsonValue& v) {
  check_version("spec", v);
  FarmSpec spec;
  for (const auto& [key, val] : v.members()) {
    if (key == "version") continue;
    else if (key == "scenario") spec.scenario = val.as_string();
    else if (key == "seed") spec.seed = val.as_uint64();
    else if (key == "stop") spec.stop = io::ber_stop_from_json(val);
    else if (key == "shard_count") spec.shard_count = as_size(val);
    else if (key == "num_points") spec.num_points = as_size(val);
    else if (key == "workers_per_shard") spec.workers_per_shard = as_size(val);
    else if (key == "channel_cache_dir") spec.channel_cache_dir = val.as_string();
    else if (key == "progress") spec.progress = val.as_bool();
    else if (key == "retry") spec.retry = retry_from_json(val);
    else unknown_key("spec", key);
  }
  detail::require(spec.shard_count >= 1, "farm spec: shard_count must be >= 1");
  detail::require(spec.workers_per_shard <= engine::kMaxWorkers,
                  "farm spec: workers_per_shard must be <= " +
                      std::to_string(engine::kMaxWorkers));
  return spec;
}

// -------------------------------------------------------------- FarmState ----

io::JsonValue farm_state_to_json(const FarmState& state) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("version", io::JsonValue::number(kFarmFormatVersion));
  doc.set("plan_digest", io::JsonValue::string(digest_hex(state.plan_digest)));
  io::JsonValue shards = io::JsonValue::array();
  for (const ShardState& shard : state.shards) {
    io::JsonValue entry = io::JsonValue::object();
    entry.set("index", io::JsonValue::number(static_cast<std::uint64_t>(shard.index)));
    entry.set("status", io::JsonValue::string(to_string(shard.status)));
    entry.set("attempts", io::JsonValue::number(static_cast<std::uint64_t>(shard.attempts)));
    entry.set("last_outcome", io::JsonValue::string(shard.last_outcome));
    entry.set("wall_s", io::JsonValue::number(shard.wall_s));
    entry.set("trials", io::JsonValue::number(shard.trials));
    entry.set("points", io::JsonValue::number(shard.points));
    entry.set("digest", io::JsonValue::string(digest_hex(shard.digest)));
    shards.push_back(std::move(entry));
  }
  doc.set("shards", std::move(shards));
  return doc;
}

FarmState farm_state_from_json(const io::JsonValue& v) {
  check_version("state", v);
  FarmState state;
  bool saw_digest = false;
  for (const auto& [key, val] : v.members()) {
    if (key == "version") continue;
    else if (key == "plan_digest") {
      state.plan_digest = digest_from_hex("plan_digest", val.as_string());
      saw_digest = true;
    } else if (key == "shards") {
      for (const io::JsonValue& entry : val.items()) {
        ShardState shard;
        for (const auto& [skey, sval] : entry.members()) {
          if (skey == "index") shard.index = as_size(sval);
          else if (skey == "status") shard.status = shard_status_from_string(sval.as_string());
          else if (skey == "attempts") shard.attempts = as_size(sval);
          else if (skey == "last_outcome") shard.last_outcome = sval.as_string();
          else if (skey == "wall_s") shard.wall_s = sval.as_double();
          else if (skey == "trials") shard.trials = sval.as_uint64();
          else if (skey == "points") shard.points = sval.as_uint64();
          else if (skey == "digest")
            shard.digest = digest_from_hex("shard digest", sval.as_string());
          else unknown_key("state shard", skey);
        }
        state.shards.push_back(std::move(shard));
      }
    } else {
      unknown_key("state", key);
    }
  }
  detail::require(saw_digest, "farm state: missing plan_digest");
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
