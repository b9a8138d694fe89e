#pragma once
/// \file manifest.h
/// \brief The run-manifest sidecar: everything about *how* a sweep ran
///        (workers, shard, wall time per point, counter totals, build
///        flags) serialized as `<out>.run.json` next to the result file.
///
/// The manifest exists so the committed result JSON can stay a pure
/// function of (scenario, seed, stop) -- byte-identical for any worker
/// count, shard split, or telemetry setting -- while the run's operational
/// evidence (where time went, what the caches did) still lands on disk in
/// machine-readable form. Nothing in the manifest feeds back into results.

#include <cstdint>
#include <string>
#include <vector>

#include "io/json.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "sim/ber_simulator.h"

namespace uwb::obs {

/// Toolchain/flags the binary was built with (from predefined macros).
struct BuildInfo {
  std::string compiler;    ///< e.g. "g++ 13.2.0" (__VERSION__)
  std::string build_type;  ///< "release" (NDEBUG) or "debug"

  [[nodiscard]] bool operator==(const BuildInfo&) const = default;
};

/// The running binary's BuildInfo.
[[nodiscard]] BuildInfo current_build_info();

/// One point's operational record (never part of the result document).
struct PointTiming {
  std::uint64_t index = 0;
  std::string label;
  double elapsed_s = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;

  /// This point's stage profile (empty unless the run profiled).
  StageTable stages;

  [[nodiscard]] bool operator==(const PointTiming&) const = default;
};

/// The whole sidecar document.
struct RunManifest {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t workers = 0;  ///< resolved worker-thread count
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  sim::BerStop stop;
  std::string result_path;  ///< the result file this manifest describes
  std::string trace_path;   ///< "" when tracing was off

  /// True when the run was cancelled (SIGINT/SIGTERM): the result file
  /// holds a valid completed-point prefix, not the full plan. Absent in
  /// manifests written before this field existed; those parse as false.
  bool interrupted = false;
  BuildInfo build;
  RunCounters counters;

  /// Run-total stage profile (`--profile`); empty tables are omitted from
  /// the document and parse back as empty, so old manifests stay readable.
  StageTable stages;
  std::vector<PointTiming> points;

  [[nodiscard]] bool operator==(const RunManifest&) const = default;
};

/// Serialization through one io/fields.h list (manifest.cpp). The stop
/// rule is written as in specs and results: `metric` and
/// `target_rel_ci_width` only when set. from_json is strict: an unknown,
/// mistyped or missing key throws InvalidArgument, except the keys older
/// manifests lack (`interrupted`, `peak_rss_mb`, `counters.trials`,
/// `stages`), and the pool totals must agree with `per_worker`. So
/// from_json(to_json(x)) == x.
[[nodiscard]] io::JsonValue manifest_to_json(const RunManifest& manifest);
[[nodiscard]] RunManifest manifest_from_json(const io::JsonValue& value);

/// Pretty-printed manifest_to_json written to \p path (parent directories
/// created).
void write_run_manifest(const RunManifest& manifest, const std::string& path);

/// The conventional sidecar path for a result file: "<result>.run.json".
[[nodiscard]] std::string manifest_path_for(const std::string& result_path);

}  // namespace uwb::obs
