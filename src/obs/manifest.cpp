#include "obs/manifest.h"

#include "common/error.h"
#include "io/fields.h"
#include "io/file.h"
#include "io/spec_io.h"

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

}  // namespace uwb::obs

// ------------------------------------------------------------ field lists ----

namespace uwb::io {

template <typename V>
void fields(V& v, Of<obs::BuildInfo> auto& b) {
  v("compiler", b.compiler);
  v("build_type", b.build_type);
}

template <typename V>
void fields(V& v, Of<obs::PoolWorkerStats> auto& w) {
  v("executed", w.executed);
  v("stolen", w.stolen);
  v("idle_us", w.idle_us);
}

constexpr Via<obs::StageTable> kStageRows{
    obs::stage_table_to_json,
    [](const JsonValue& v, obs::StageTable& out) { out = obs::stage_table_from_json(v); }};

template <typename V>
void fields(V& v, Of<obs::PointTiming> auto& p) {
  v("index", p.index);
  v("label", p.label);
  v("elapsed_s", p.elapsed_s);
  v("trials", p.trials);
  v("bits", p.bits);
  v("errors", p.errors);
  v.field_if(!p.stages.empty(), "stages", p.stages, kStageRows);
}

/// The manifest's `counters` object; wall_s and peak_rss_mb sit at the
/// manifest's top level.
template <typename V>
void fields(V& v, Of<obs::RunCounters> auto& c) {
  v("channel_cache", group([&](auto& g) {
      g("hits", c.cache_hits);
      g("disk_loads", c.cache_disk_loads);
      g("generated", c.cache_generated);
      g("sv_draws", c.cache_sv_draws);
    }));
  v("fft_plan_cache", group([&](auto& g) {
      g("hits", c.fft_plan_hits);
      g("misses", c.fft_plan_misses);
    }));
  // Absent from manifests written before the engine counted trials.
  v.optional("trials", group([&](auto& g) {
      g("executed", c.trials_executed);
      g("committed", c.trials_committed);
    }));
  v("pool", group([&](auto& g) {
      // Totals derived from per_worker, for readers of the file: written
      // from it, and on read checked against it once it is read.
      std::uint64_t workers = c.pool.size();
      std::uint64_t executed = c.pool_executed();
      std::uint64_t stolen = c.pool_stolen();
      std::uint64_t idle_us = c.pool_idle_us();
      g("workers", workers);
      g("tasks_executed", executed);
      g("tasks_stolen", stolen);
      g("idle_us_total", idle_us);
      g("per_worker", c.pool);
      detail::require(workers == c.pool.size() && executed == c.pool_executed() &&
                          stolen == c.pool_stolen() && idle_us == c.pool_idle_us(),
                      "run manifest: pool totals disagree with per_worker");
    }));
}

template <typename V>
void fields(V& v, Of<obs::RunManifest> auto& m) {
  v("scenario", m.scenario);
  v("seed", m.seed);
  v("workers", m.workers);
  v("shard", group([&](auto& g) {
      g("index", m.shard_index);
      g("count", m.shard_count);
    }));
  v("stop", m.stop);
  v("result", m.result_path);
  v("trace", m.trace_path);
  // Optional: absent from manifests written before these fields existed.
  v.optional("interrupted", m.interrupted);
  v("wall_s", m.counters.wall_s);
  v.optional("peak_rss_mb", m.counters.peak_rss_mb);
  v("build", m.build);
  // A group, not a nested struct: a nested struct would be read from
  // defaults, dropping the wall_s and peak_rss_mb read above.
  v("counters", group([&](auto& g) { fields(g, m.counters); }));
  v.field_if(!m.stages.empty(), "stages", m.stages, kStageRows);
  v("points", m.points);
}

}  // namespace uwb::io

namespace uwb::obs {

io::JsonValue manifest_to_json(const RunManifest& manifest) {
  return io::write_struct(manifest);
}

RunManifest manifest_from_json(const io::JsonValue& value) {
  constexpr io::Document kManifest{"run manifest", io::Missing::kThrow};
  return io::read_struct(value, kManifest, nullptr, RunManifest{});
}

void write_run_manifest(const RunManifest& manifest, const std::string& path) {
  io::write_file(path, io::dump_json_pretty(manifest_to_json(manifest)) + "\n",
                 "write_run_manifest");
}

std::string manifest_path_for(const std::string& result_path) {
  return result_path + ".run.json";
}

}  // namespace uwb::obs
