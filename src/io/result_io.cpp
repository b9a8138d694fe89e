#include "io/result_io.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "io/fields.h"
#include "io/json.h"
#include "io/spec_io.h"

namespace uwb::io {

std::string write_result_json(const ResultDoc& doc) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"scenario\": \"" << json_escape(doc.scenario) << "\",\n";
  out << "  \"seed\": " << doc.seed << ",\n";
  out << "  \"stop\": {\"min_errors\": " << doc.stop.min_errors
      << ", \"max_bits\": " << doc.stop.max_bits
      << ", \"max_trials\": " << doc.stop.max_trials;
  // Serialized only when set: BER-only documents keep their historical
  // byte layout (and old files parse as metric = "").
  if (!doc.stop.metric.empty()) {
    out << ", \"metric\": \"" << json_escape(doc.stop.metric) << "\"";
  }
  if (doc.stop.target_rel_ci_width > 0.0) {
    out << ", \"target_rel_ci_width\": " << format_double(doc.stop.target_rel_ci_width);
  }
  out << "},\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < doc.points.size(); ++i) {
    const ResultPoint& point = doc.points[i];
    out << "    {\"index\": " << point.index << ", \"label\": \""
        << json_escape(point.label) << "\", \"tags\": {";
    for (std::size_t t = 0; t < point.tags.size(); ++t) {
      if (t > 0) out << ", ";
      out << "\"" << json_escape(point.tags[t].first) << "\": \""
          << json_escape(point.tags[t].second) << "\"";
    }
    out << "}, \"ber\": " << point.ber << ", \"ci95\": " << point.ci95
        << ", \"errors\": " << point.errors << ", \"bits\": " << point.bits
        << ", \"trials\": " << point.trials;
    if (!point.ci_lo.empty()) {
      out << ", \"ci_lo\": " << point.ci_lo << ", \"ci_hi\": " << point.ci_hi
          << ", \"ci_method\": \"" << json_escape(point.ci_method) << "\"";
    }
    if (point.weighted) {
      out << ", \"weighted\": true, \"ess\": " << point.ess;
    }
    if (!point.metrics.empty()) {
      out << ",\n     \"metrics\": {";
      for (std::size_t m = 0; m < point.metrics.size(); ++m) {
        const ResultMetric& metric = point.metrics[m];
        if (m > 0) out << ", ";
        out << "\"" << json_escape(metric.name) << "\": {\"count\": " << metric.count
            << ", \"mean\": " << metric.mean << ", \"variance\": " << metric.variance
            << "}";
      }
      out << "}";
    }
    out << "}";
    out << (i + 1 < doc.points.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

namespace {

/// \throws InvalidArgument on a member of \p v that \p known does not
/// name: a typo'd or foreign key must not load as a document that silently
/// means something else (and would be written back without it).
void require_known_keys(const JsonValue& v, std::initializer_list<std::string_view> known,
                        const std::string& where) {
  for (const auto& [key, value] : v.members()) {
    detail::require(std::find(known.begin(), known.end(), key) != known.end(),
                    "result: " + where + ": unknown key '" + key + "'");
  }
}

}  // namespace

ResultDoc parse_result_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  require_known_keys(root, {"scenario", "seed", "stop", "points"}, "document");
  ResultDoc doc;
  doc.scenario = root.at("scenario").as_string();
  doc.seed = root.at("seed").as_uint64();
  constexpr Document kResult{"result", Missing::kThrow};
  doc.stop = read_struct(root.at("stop"), kResult, "stop", sim::BerStop{});
  for (const JsonValue& p : root.at("points").items()) {
    ResultPoint point;
    point.index = p.at("index").as_uint64();
    require_known_keys(p,
                       {"index", "label", "tags", "ber", "ci95", "errors", "bits", "trials",
                        "ci_lo", "ci_hi", "ci_method", "weighted", "ess", "metrics"},
                       "point " + std::to_string(point.index));
    point.label = p.at("label").as_string();
    for (const auto& [key, value] : p.at("tags").members()) {
      point.tags.emplace_back(key, value.as_string());
    }
    point.ber = p.at("ber").number_text();
    point.ci95 = p.at("ci95").number_text();
    point.errors = p.at("errors").as_uint64();
    point.bits = p.at("bits").as_uint64();
    point.trials = p.at("trials").as_uint64();
    if (const JsonValue* lo = p.find("ci_lo")) point.ci_lo = lo->number_text();
    if (const JsonValue* hi = p.find("ci_hi")) point.ci_hi = hi->number_text();
    if (const JsonValue* method = p.find("ci_method")) point.ci_method = method->as_string();
    if (const JsonValue* weighted = p.find("weighted")) point.weighted = weighted->as_bool();
    if (const JsonValue* ess = p.find("ess")) point.ess = ess->number_text();
    // The writer emits ci_lo with ci_hi and ess with weighted: a document
    // holding one without the other would be written back malformed.
    detail::require(point.ci_lo.empty() == point.ci_hi.empty(),
                    "result: point " + std::to_string(point.index) + ": ci_lo without ci_hi");
    detail::require(!point.weighted || !point.ess.empty(),
                    "result: point " + std::to_string(point.index) + ": weighted without ess");
    if (const JsonValue* metrics = p.find("metrics")) {
      for (const auto& [name, stats] : metrics->members()) {
        require_known_keys(stats, {"count", "mean", "variance"},
                           "point " + std::to_string(point.index) + " metric '" + name + "'");
        ResultMetric metric;
        metric.name = name;
        metric.count = stats.at("count").as_uint64();
        metric.mean = stats.at("mean").number_text();
        metric.variance = stats.at("variance").number_text();
        point.metrics.push_back(std::move(metric));
      }
    }
    doc.points.push_back(std::move(point));
  }
  return doc;
}

ResultDoc merge_results(const std::vector<ResultDoc>& shards, bool allow_partial) {
  detail::require(!shards.empty(), "merge: no result documents given");
  ResultDoc merged;
  merged.scenario = shards.front().scenario;
  merged.seed = shards.front().seed;
  merged.stop = shards.front().stop;
  for (const ResultDoc& shard : shards) {
    detail::require(shard.scenario == merged.scenario,
                    "merge: scenario mismatch ('" + shard.scenario + "' vs '" +
                        merged.scenario + "')");
    detail::require(shard.seed == merged.seed, "merge: seed mismatch");
    detail::require(shard.stop == merged.stop, "merge: stopping-rule mismatch");
    merged.points.insert(merged.points.end(), shard.points.begin(), shard.points.end());
  }
  std::stable_sort(merged.points.begin(), merged.points.end(),
                   [](const ResultPoint& a, const ResultPoint& b) {
                     return a.index < b.index;
                   });
  for (std::size_t i = 1; i < merged.points.size(); ++i) {
    detail::require(merged.points[i].index != merged.points[i - 1].index,
                    "merge: duplicate point index " +
                        std::to_string(merged.points[i].index));
  }
  if (!allow_partial) {
    // Plan indices are dense (0..num_points-1), so any hole in the sorted
    // indices means a shard is missing from the merge. (A missing tail is
    // indistinguishable from a shorter plan here; the farm closes that gap
    // by checking the merged count against the plan's point count.)
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
      detail::require(
          merged.points[i].index == i,
          "merge: coverage gap -- point index " + std::to_string(i) +
              " is missing (got " + std::to_string(merged.points[i].index) +
              "); pass every shard of the sweep, or merge with "
              "--allow-partial to accept an explicitly incomplete document");
    }
  }
  return merged;
}

}  // namespace uwb::io
