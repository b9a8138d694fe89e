#include "obs/manifest.h"

#include "common/error.h"
#include "io/file.h"

namespace uwb::obs {

BuildInfo current_build_info() {
  BuildInfo info;
#if defined(__clang__) || defined(__GNUC__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(NDEBUG)
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
  return info;
}

io::JsonValue manifest_to_json(const RunManifest& m) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("scenario", io::JsonValue::string(m.scenario));
  doc.set("seed", io::JsonValue::number(m.seed));
  doc.set("workers", io::JsonValue::number(static_cast<std::uint64_t>(m.workers)));

  io::JsonValue shard = io::JsonValue::object();
  shard.set("index", io::JsonValue::number(static_cast<std::uint64_t>(m.shard_index)));
  shard.set("count", io::JsonValue::number(static_cast<std::uint64_t>(m.shard_count)));
  doc.set("shard", std::move(shard));

  io::JsonValue stop = io::JsonValue::object();
  stop.set("min_errors", io::JsonValue::number(static_cast<std::uint64_t>(m.stop.min_errors)));
  stop.set("max_bits", io::JsonValue::number(static_cast<std::uint64_t>(m.stop.max_bits)));
  stop.set("max_trials", io::JsonValue::number(static_cast<std::uint64_t>(m.stop.max_trials)));
  stop.set("metric", io::JsonValue::string(m.stop.metric));
  doc.set("stop", std::move(stop));

  doc.set("result", io::JsonValue::string(m.result_path));
  doc.set("trace", io::JsonValue::string(m.trace_path));
  doc.set("interrupted", io::JsonValue::boolean(m.interrupted));
  doc.set("wall_s", io::JsonValue::number(m.counters.wall_s));
  doc.set("peak_rss_mb", io::JsonValue::number(m.counters.peak_rss_mb));

  io::JsonValue build = io::JsonValue::object();
  build.set("compiler", io::JsonValue::string(m.build.compiler));
  build.set("build_type", io::JsonValue::string(m.build.build_type));
  doc.set("build", std::move(build));

  io::JsonValue counters = io::JsonValue::object();
  {
    io::JsonValue cache = io::JsonValue::object();
    cache.set("hits", io::JsonValue::number(m.counters.cache_hits));
    cache.set("disk_loads", io::JsonValue::number(m.counters.cache_disk_loads));
    cache.set("generated", io::JsonValue::number(m.counters.cache_generated));
    cache.set("sv_draws", io::JsonValue::number(m.counters.cache_sv_draws));
    counters.set("channel_cache", std::move(cache));
  }
  {
    io::JsonValue fft = io::JsonValue::object();
    fft.set("hits", io::JsonValue::number(m.counters.fft_plan_hits));
    fft.set("misses", io::JsonValue::number(m.counters.fft_plan_misses));
    counters.set("fft_plan_cache", std::move(fft));
  }
  {
    io::JsonValue trials = io::JsonValue::object();
    trials.set("executed", io::JsonValue::number(m.counters.trials_executed));
    trials.set("committed", io::JsonValue::number(m.counters.trials_committed));
    counters.set("trials", std::move(trials));
  }
  {
    io::JsonValue pool = io::JsonValue::object();
    pool.set("workers", io::JsonValue::number(static_cast<std::uint64_t>(m.counters.pool.size())));
    pool.set("tasks_executed", io::JsonValue::number(m.counters.pool_executed()));
    pool.set("tasks_stolen", io::JsonValue::number(m.counters.pool_stolen()));
    pool.set("idle_us_total", io::JsonValue::number(m.counters.pool_idle_us()));
    io::JsonValue per_worker = io::JsonValue::array();
    for (const PoolWorkerStats& w : m.counters.pool) {
      io::JsonValue entry = io::JsonValue::object();
      entry.set("executed", io::JsonValue::number(w.executed));
      entry.set("stolen", io::JsonValue::number(w.stolen));
      entry.set("idle_us", io::JsonValue::number(w.idle_us));
      per_worker.push_back(std::move(entry));
    }
    pool.set("per_worker", std::move(per_worker));
    counters.set("pool", std::move(pool));
  }
  doc.set("counters", std::move(counters));

  if (!m.stages.empty()) doc.set("stages", stage_table_to_json(m.stages));

  io::JsonValue points = io::JsonValue::array();
  for (const PointTiming& point : m.points) {
    io::JsonValue entry = io::JsonValue::object();
    entry.set("index", io::JsonValue::number(point.index));
    entry.set("label", io::JsonValue::string(point.label));
    entry.set("elapsed_s", io::JsonValue::number(point.elapsed_s));
    entry.set("trials", io::JsonValue::number(point.trials));
    entry.set("bits", io::JsonValue::number(point.bits));
    entry.set("errors", io::JsonValue::number(point.errors));
    if (!point.stages.empty()) entry.set("stages", stage_table_to_json(point.stages));
    points.push_back(std::move(entry));
  }
  doc.set("points", std::move(points));
  return doc;
}

RunManifest manifest_from_json(const io::JsonValue& doc) {
  RunManifest m;
  m.scenario = doc.at("scenario").as_string();
  m.seed = doc.at("seed").as_uint64();
  m.workers = static_cast<std::size_t>(doc.at("workers").as_uint64());

  const io::JsonValue& shard = doc.at("shard");
  m.shard_index = static_cast<std::size_t>(shard.at("index").as_uint64());
  m.shard_count = static_cast<std::size_t>(shard.at("count").as_uint64());

  const io::JsonValue& stop = doc.at("stop");
  m.stop.min_errors = static_cast<std::size_t>(stop.at("min_errors").as_uint64());
  m.stop.max_bits = static_cast<std::size_t>(stop.at("max_bits").as_uint64());
  m.stop.max_trials = static_cast<std::size_t>(stop.at("max_trials").as_uint64());
  m.stop.metric = stop.at("metric").as_string();

  m.result_path = doc.at("result").as_string();
  m.trace_path = doc.at("trace").as_string();
  // Optional for manifests written before interruption existed.
  if (const io::JsonValue* interrupted = doc.find("interrupted")) {
    m.interrupted = interrupted->as_bool();
  }
  m.counters.wall_s = doc.at("wall_s").as_double();
  // Optional for manifests written before the engine read peak RSS.
  if (const io::JsonValue* rss = doc.find("peak_rss_mb")) {
    m.counters.peak_rss_mb = rss->as_double();
  }

  const io::JsonValue& build = doc.at("build");
  m.build.compiler = build.at("compiler").as_string();
  m.build.build_type = build.at("build_type").as_string();

  const io::JsonValue& counters = doc.at("counters");
  const io::JsonValue& cache = counters.at("channel_cache");
  m.counters.cache_hits = cache.at("hits").as_uint64();
  m.counters.cache_disk_loads = cache.at("disk_loads").as_uint64();
  m.counters.cache_generated = cache.at("generated").as_uint64();
  m.counters.cache_sv_draws = cache.at("sv_draws").as_uint64();
  const io::JsonValue& fft = counters.at("fft_plan_cache");
  m.counters.fft_plan_hits = fft.at("hits").as_uint64();
  m.counters.fft_plan_misses = fft.at("misses").as_uint64();
  // Optional for manifests written before the engine counted trials.
  if (const io::JsonValue* trials = counters.find("trials")) {
    m.counters.trials_executed = trials->at("executed").as_uint64();
    m.counters.trials_committed = trials->at("committed").as_uint64();
  }
  const io::JsonValue& pool = counters.at("pool");
  for (const io::JsonValue& entry : pool.at("per_worker").items()) {
    PoolWorkerStats w;
    w.executed = entry.at("executed").as_uint64();
    w.stolen = entry.at("stolen").as_uint64();
    w.idle_us = entry.at("idle_us").as_uint64();
    m.counters.pool.push_back(w);
  }
  detail::require(pool.at("workers").as_uint64() == m.counters.pool.size(),
                  "run manifest: pool.workers disagrees with per_worker length");

  // Optional for manifests written before stage profiling existed (and for
  // unprofiled runs, which omit the key).
  if (const io::JsonValue* stages = doc.find("stages")) {
    m.stages = stage_table_from_json(*stages);
  }

  for (const io::JsonValue& entry : doc.at("points").items()) {
    PointTiming point;
    point.index = entry.at("index").as_uint64();
    point.label = entry.at("label").as_string();
    point.elapsed_s = entry.at("elapsed_s").as_double();
    point.trials = entry.at("trials").as_uint64();
    point.bits = entry.at("bits").as_uint64();
    point.errors = entry.at("errors").as_uint64();
    if (const io::JsonValue* stages = entry.find("stages")) {
      point.stages = stage_table_from_json(*stages);
    }
    m.points.push_back(std::move(point));
  }
  return m;
}

void write_run_manifest(const RunManifest& manifest, const std::string& path) {
  io::write_file(path, io::dump_json_pretty(manifest_to_json(manifest)) + "\n",
                 "write_run_manifest");
}

RunManifest load_run_manifest(const std::string& path) {
  return manifest_from_json(io::parse_json(io::read_file(path, "load_run_manifest")));
}

std::string manifest_path_for(const std::string& result_path) {
  return result_path + ".run.json";
}

}  // namespace uwb::obs
