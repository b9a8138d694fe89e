#include "io/result_io.h"

#include <algorithm>

#include "common/error.h"
#include "io/fields.h"
#include "io/json.h"
#include "io/spec_io.h"

namespace uwb::io {

// ------------------------------------------------------------ field lists ----
// The result schema: each key named once, in document order (see
// io/fields.h). Numbers a sweep computed stay literal text (kNumberText),
// so parse -> write reproduces a document byte for byte.

template <typename V>
void fields(V& v, Of<ResultMetric> auto& s) {
  v("count", s.count);
  v("mean", s.mean, kNumberText);
  v("variance", s.variance, kNumberText);
}

template <typename V>
void fields(V& v, Of<ResultPoint> auto& s) {
  v("index", s.index);
  v("label", s.label);
  v("tags", s.tags, kTagObject);
  v("ber", s.ber, kNumberText);
  v("ci95", s.ci95, kNumberText);
  v("errors", s.errors);
  v("bits", s.bits);
  v("trials", s.trials);
  // Absent from pre-CI documents, and not re-invented on write.
  v.field_if(!s.ci_lo.empty(), "ci_lo", s.ci_lo, kNumberText);
  v.field_if(!s.ci_lo.empty(), "ci_hi", s.ci_hi, kNumberText);
  v.field_if(!s.ci_lo.empty(), "ci_method", s.ci_method);
  v.field_if(s.weighted, "weighted", s.weighted);
  v.field_if(s.weighted, "ess", s.ess, kNumberText);
  // BER-only sweeps keep the historical layout.
  v.field_if(!s.metrics.empty(), "metrics", s.metrics, kKeyedBy<&ResultMetric::name>);
  // The writer pairs ci_lo with ci_hi and weighted with ess: a document
  // holding one without the other would be written back malformed.
  detail::require(s.ci_lo.empty() == s.ci_hi.empty(),
                  "result: point " + std::to_string(s.index) + ": ci_lo without ci_hi");
  detail::require(!s.weighted || !s.ess.empty(),
                  "result: point " + std::to_string(s.index) + ": weighted without ess");
}

template <typename V>
void fields(V& v, Of<ResultDoc> auto& s) {
  v("scenario", s.scenario);
  v("seed", s.seed);
  v("stop", s.stop);
  v("points", s.points);
}

namespace {

/// Appends \p v's members compactly; a member that holds objects (a
/// point's metrics) starts a continuation line, so each point's counters
/// read on one line.
void print_members(const JsonValue& v, std::string& out) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : v.members()) {
    bool nests = false;
    if (value.is_object()) {
      for (const auto& member : value.members()) nests = nests || member.second.is_object();
    }
    if (!first) out += nests ? ",\n     " : ", ";
    first = false;
    out += '"' + json_escape(key) + "\": " + dump_json(value);
  }
  out += '}';
}

}  // namespace

std::string write_result_json(const ResultDoc& doc) {
  // The compact result layout: one top-level member per line, and one
  // line per array element (a point).
  const JsonValue root = write_struct(doc);
  std::string out = "{\n";
  const JsonValue::Object& members = root.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, value] = members[i];
    out += "  \"" + json_escape(key) + "\": ";
    if (value.is_array()) {
      out += "[\n";
      for (std::size_t p = 0; p < value.items().size(); ++p) {
        out += "    ";
        print_members(value.items()[p], out);
        out += p + 1 < value.items().size() ? ",\n" : "\n";
      }
      out += "  ]";
    } else {
      out += dump_json(value);
    }
    out += i + 1 < members.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

ResultDoc parse_result_json(const std::string& text) {
  constexpr Document kResult{"result", Missing::kThrow};
  return read_struct(parse_json(text), kResult, nullptr, ResultDoc{});
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
