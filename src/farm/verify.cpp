#include "farm/verify.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>

#include "common/error.h"
#include "common/math_utils.h"
#include "farm/farm_state.h"
#include "io/fields.h"
#include "io/file.h"
#include "stats/binomial_ci.h"

namespace uwb::farm {

namespace {

/// The top level of an expectations document.
struct Expectations {
  int version = kExpectationsVersion;
  std::optional<std::string> scenario;
  std::optional<std::uint64_t> points;
  std::optional<std::uint64_t> min_total_trials;
  std::vector<io::JsonValue> checks;
};

/// A `reference` fixture point: the counts and estimate an interval is
/// recomputed from.
struct FixturePoint {
  io::ResultPoint point;
};

/// A `reference` check: the fixture points, their filter, and the
/// fixture's provenance (spec_digest, seed), which verify does not read.
struct ReferenceCheck {
  std::uint64_t spec_digest = 0;
  std::uint64_t seed = 0;
  std::vector<FixturePoint> points;
  io::Tags where;
};

// Field lists (io/fields.h), found by argument-dependent lookup.

/// A check's optional tag filter: every pair must match a point's tags.
template <typename V>
void where_filter(V& v, io::Of<io::Tags> auto& where) {
  v.field_if(!where.empty(), "where", where, io::kTagObject);
}

template <typename V>
void fields(V& v, io::Of<Expectations> auto& e) {
  v("version", e.version);
  detail::require(e.version == kExpectationsVersion,
                  "verify: expectations version " + std::to_string(e.version) +
                      " does not match this binary's version " +
                      std::to_string(kExpectationsVersion));
  v.field_if(e.scenario.has_value(), "scenario", e.scenario);
  v.field_if(e.points.has_value(), "points", e.points);
  v.field_if(e.min_total_trials.has_value(), "min_total_trials", e.min_total_trials);
  v.optional("checks", e.checks);
}

template <typename V>
void fields(V& v, io::Of<FixturePoint> auto& f) {
  v("label", f.point.label);
  v("errors", f.point.errors);
  v("bits", f.point.bits);
  v("ber", f.point.ber, io::kNumberText);
  v("ci95", f.point.ci95, io::kNumberText);
  v.field_if(f.point.weighted, "weighted", f.point.weighted);
}

template <typename V>
void fields(V& v, io::Of<ReferenceCheck> auto& c) {
  v.optional("spec_digest", c.spec_digest, io::kHexDigest);
  v.optional("seed", c.seed);
  v("points", c.points);
  where_filter(v, c.where);
}

constexpr io::Document kExpectationsDoc{"verify", io::Missing::kThrow};

/// The key every check holds: its kind.
constexpr const char* kKindKey = "check";

/// Reads check \p json of kind \p kind through \p list. Any key neither
/// names throws, so a typo'd key cannot widen, loosen or drop a check.
template <typename List>
void read_check(const io::JsonValue& json, const char* kind, const List& list) {
  io::read_object(json, kExpectationsDoc, kind, [&](io::Reader& r) {
    std::string name;
    r(kKindKey, name);
    list(r);
  });
}

double parse_literal(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  detail::require(end == text.c_str() + text.size() && !text.empty(),
                  "verify: unparseable number '" + text + "' in " + what);
  return v;
}

/// A point's value under a metric name ("ber"/"ci95"/counters/recorded
/// metric mean). \throws InvalidArgument when the metric is absent.
double point_value(const io::ResultPoint& point, const std::string& metric) {
  if (metric == "ber") return parse_literal(point.ber, "ber");
  if (metric == "ci95") return parse_literal(point.ci95, "ci95");
  if (metric == "errors") return static_cast<double>(point.errors);
  if (metric == "bits") return static_cast<double>(point.bits);
  if (metric == "trials") return static_cast<double>(point.trials);
  for (const io::ResultMetric& m : point.metrics) {
    if (m.name == metric) return parse_literal(m.mean, "metric '" + metric + "' mean");
  }
  throw InvalidArgument("verify: point " + std::to_string(point.index) + " ('" +
                        point.label + "') records no metric '" + metric + "'");
}

std::string tag_of(const io::ResultPoint& point, const std::string& key) {
  for (const auto& [k, v] : point.tags) {
    if (k == key) return v;
  }
  return {};
}

/// Points matching a `where` tag filter (all pairs must match).
std::vector<const io::ResultPoint*> select(const io::ResultDoc& doc, const io::Tags& where) {
  std::vector<const io::ResultPoint*> out;
  for (const io::ResultPoint& point : doc.points) {
    bool match = true;
    for (const auto& [key, value] : where) match = match && tag_of(point, key) == value;
    if (match) out.push_back(&point);
  }
  return out;
}

std::string describe_where(const io::Tags& where) {
  if (where.empty()) return "all points";
  std::string out;
  for (const auto& [key, value] : where) {
    if (!out.empty()) out += ", ";
    out += key + "=" + value;
  }
  return out;
}

void check_range(const io::ResultDoc& doc, const io::JsonValue& check,
                 VerifyReport& report) {
  std::string metric;
  io::Tags where;
  std::optional<double> min, max;
  read_check(check, "range", [&](io::Reader& r) {
    r("metric", metric);
    where_filter(r, where);
    r.optional("min", min);
    r.optional("max", max);
  });
  detail::require(min.has_value() || max.has_value(),
                  "verify: range check on '" + metric + "' has neither min nor max");
  const auto points = select(doc, where);
  if (points.empty()) {
    report.failures.push_back("range '" + metric + "' (" + describe_where(where) +
                              "): selects no points");
    return;
  }
  for (const io::ResultPoint* point : points) {
    const double v = point_value(*point, metric);
    if (min.has_value() && v < *min) {
      report.failures.push_back("range '" + metric + "': point " +
                                std::to_string(point->index) + " ('" + point->label +
                                "') has " + io::format_double(v) + " < min " +
                                io::format_double(*min));
    }
    if (max.has_value() && v > *max) {
      report.failures.push_back("range '" + metric + "': point " +
                                std::to_string(point->index) + " ('" + point->label +
                                "') has " + io::format_double(v) + " > max " +
                                io::format_double(*max));
    }
  }
}

void check_monotone(const io::ResultDoc& doc, const io::JsonValue& check,
                    VerifyReport& report) {
  std::string metric, axis, direction;
  double tolerance = 0.0;
  io::Tags where;
  std::vector<std::string> group_by;
  read_check(check, "monotone", [&](io::Reader& r) {
    r("metric", metric);
    r("axis", axis);
    r("direction", direction);
    r.optional("tolerance", tolerance);
    where_filter(r, where);
    r.optional("group_by", group_by);
  });
  detail::require(direction == "nonincreasing" || direction == "nondecreasing",
                  "verify: monotone direction must be nonincreasing or "
                  "nondecreasing, got '" + direction + "'");

  // Group key = the group_by tag values joined; one group when absent.
  std::map<std::string, std::vector<const io::ResultPoint*>> groups;
  for (const io::ResultPoint* point : select(doc, where)) {
    std::string key;
    for (const std::string& tag : group_by) key += tag_of(*point, tag) + "|";
    groups[key].push_back(point);
  }
  if (groups.empty()) {
    report.failures.push_back("monotone '" + metric + "' vs " + axis +
                              ": selects no points");
    return;
  }
  for (auto& [key, points] : groups) {
    std::stable_sort(points.begin(), points.end(),
                     [&](const io::ResultPoint* a, const io::ResultPoint* b) {
                       return parse_literal(tag_of(*a, axis), "axis " + axis) <
                              parse_literal(tag_of(*b, axis), "axis " + axis);
                     });
    if (points.size() < 2) {
      report.failures.push_back("monotone '" + metric + "' vs " + axis + " (group " +
                                (key.empty() ? "all" : key) +
                                "): fewer than two points to compare");
      continue;
    }
    for (std::size_t i = 1; i < points.size(); ++i) {
      const double prev = point_value(*points[i - 1], metric);
      const double curr = point_value(*points[i], metric);
      const bool bad = direction == "nonincreasing" ? curr > prev + tolerance
                                                    : curr < prev - tolerance;
      if (bad) {
        report.failures.push_back(
            "monotone '" + metric + "' vs " + axis + ": '" + points[i - 1]->label +
            "' -> '" + points[i]->label + "' goes " + io::format_double(prev) +
            " -> " + io::format_double(curr) + ", violating " + direction +
            (tolerance > 0.0 ? " (tolerance " + io::format_double(tolerance) + ")"
                             : ""));
      }
    }
  }
}

void check_ci_contains(const io::ResultDoc& doc, const io::JsonValue& check,
                       VerifyReport& report) {
  io::Tags where;
  std::optional<double> value;
  read_check(check, "ci_contains", [&](io::Reader& r) {
    where_filter(r, where);
    r.optional("value", value);
  });
  const auto points = select(doc, where);
  if (points.empty()) {
    report.failures.push_back("ci_contains (" + describe_where(where) +
                              "): selects no points");
    return;
  }
  for (const io::ResultPoint* point : points) {
    const std::string at = "ci_contains: point " + std::to_string(point->index) +
                           " ('" + point->label + "')";
    if (point->ci_lo.empty() || point->ci_hi.empty()) {
      report.failures.push_back(at + " carries no two-sided interval");
      continue;
    }
    const double lo = parse_literal(point->ci_lo, "ci_lo");
    const double hi = parse_literal(point->ci_hi, "ci_hi");
    if (hi < lo) {
      report.failures.push_back(at + " has inverted interval [" +
                                io::format_double(lo) + ", " + io::format_double(hi) +
                                "]");
      continue;
    }
    const double v = value.has_value() ? *value : parse_literal(point->ber, "ber");
    if (v < lo || v > hi) {
      report.failures.push_back(at + ": [" + io::format_double(lo) + ", " +
                                io::format_double(hi) + "] does not contain " +
                                (value.has_value() ? "" : "its own ber ") +
                                io::format_double(v));
    }
  }
}

void check_accounting(const io::ResultDoc& doc, const io::JsonValue& check,
                      VerifyReport& report) {
  std::uint64_t min_trials = 1;
  read_check(check, "accounting", [&](io::Reader& r) { r.optional("min_trials", min_trials); });
  for (const io::ResultPoint& point : doc.points) {
    const std::string at =
        "accounting: point " + std::to_string(point.index) + " ('" + point.label + "')";
    if (point.errors > point.bits) {
      report.failures.push_back(at + " counts " + std::to_string(point.errors) +
                                " errors in " + std::to_string(point.bits) + " bits");
    }
    if (point.trials < min_trials) {
      report.failures.push_back(at + " ran " + std::to_string(point.trials) +
                                " trials, expected >= " + std::to_string(min_trials));
    }
    if (doc.stop.max_trials > 0 && point.trials > doc.stop.max_trials) {
      report.failures.push_back(at + " ran " + std::to_string(point.trials) +
                                " trials, over the stop rule's max_trials " +
                                std::to_string(doc.stop.max_trials));
    }
  }
}

/// The family-wise two-sided confidence of a `reference` or `analytic`
/// check: all of its points' intervals hold together with at least this
/// probability.
constexpr double kOracleConfidence = 0.99;

/// The per-point confidence of a check over \p points points at the family
/// confidence kOracleConfidence (Bonferroni): each point's interval is
/// widened so that all of them hold together.
double bonferroni_confidence(std::size_t points) {
  return 1.0 - (1.0 - kOracleConfidence) / static_cast<double>(std::max<std::size_t>(points, 1));
}

/// A point's BER interval at two-sided \p confidence: exact Clopper-Pearson
/// from its counts or, for an importance-sampled point, its normal interval
/// rescaled from the recorded 95% half-width.
stats::Interval ber_interval(const io::ResultPoint& point, double confidence) {
  if (!point.weighted) return stats::clopper_pearson(point.errors, point.bits, confidence);
  const double z = stats::normal_quantile(0.5 + 0.5 * confidence) /
                   stats::normal_quantile(0.975);
  const double ber = parse_literal(point.ber, "ber");
  const double half = z * parse_literal(point.ci95, "ci95");
  return {std::max(0.0, ber - half), std::min(1.0, ber + half)};
}

std::string describe(const stats::Interval& ci) {
  std::string out = "[";
  out += io::format_double(ci.lo);
  out += ", ";
  out += io::format_double(ci.hi);
  out += "]";
  return out;
}

std::string point_name(const io::ResultPoint& point) {
  return "point " + std::to_string(point.index) + " ('" + point.label + "')";
}

void check_reference(const io::ResultDoc& doc, const io::JsonValue& check,
                     VerifyReport& report) {
  ReferenceCheck reference;
  read_check(check, "reference", [&](io::Reader& r) { fields(r, reference); });
  std::map<std::string, io::ResultPoint> fixture;
  for (FixturePoint& f : reference.points) {
    const std::string label = f.point.label;
    detail::require(fixture.emplace(label, std::move(f.point)).second,
                    "verify: reference fixture repeats the label '" + label + "'");
  }
  const io::Tags& where = reference.where;
  const auto points = select(doc, where);
  if (points.empty()) {
    report.failures.push_back("reference (" + describe_where(where) + "): selects no points");
    return;
  }
  const double confidence = bonferroni_confidence(points.size());
  for (const io::ResultPoint* point : points) {
    const auto it = fixture.find(point->label);
    if (it == fixture.end()) {
      report.failures.push_back("reference: " + point_name(*point) +
                                " has no fixture point with its label");
      continue;
    }
    const stats::Interval got = ber_interval(*point, confidence);
    const stats::Interval want = ber_interval(it->second, confidence);
    if (got.hi < want.lo || want.hi < got.lo) {
      report.failures.push_back("reference: " + point_name(*point) + " BER interval " +
                                describe(got) + " misses the fixture's " + describe(want) +
                                " (per-point confidence " + io::format_double(confidence) +
                                ")");
    }
  }
}

void check_analytic(const io::ResultDoc& doc, const io::JsonValue& check,
                    VerifyReport& report) {
  std::string axis;
  double loss_db = 0.0;
  io::Tags where;
  read_check(check, "analytic", [&](io::Reader& r) {
    r("axis", axis);
    r("loss_db", loss_db);
    where_filter(r, where);
  });
  detail::require(loss_db >= 0.0, "verify: analytic loss_db must be >= 0");
  const auto points = select(doc, where);
  if (points.empty()) {
    report.failures.push_back("analytic (" + describe_where(where) + "): selects no points");
    return;
  }
  const double confidence = bonferroni_confidence(points.size());
  for (const io::ResultPoint* point : points) {
    // Antipodal signalling on AWGN: Q(sqrt(2 Eb/N0)) is the ideal receiver,
    // and a receiver losing at most loss_db reaches Q(sqrt(2 Eb/N0 / L)).
    const double ebn0 = from_db(parse_literal(tag_of(*point, axis), "axis " + axis));
    const stats::Interval band{q_function(std::sqrt(2.0 * ebn0)),
                               q_function(std::sqrt(2.0 * ebn0 / from_db(loss_db)))};
    const stats::Interval got = ber_interval(*point, confidence);
    if (got.hi < band.lo || band.hi < got.lo) {
      report.failures.push_back("analytic: " + point_name(*point) + " BER interval " +
                                describe(got) + " misses the antipodal band " +
                                describe(band) + " for a loss of " +
                                io::format_double(loss_db) + " dB");
    }
  }
}

}  // namespace

VerifyReport verify_result(const io::ResultDoc& doc,
                           const io::JsonValue& expectations) {
  Expectations e;
  io::read_object(expectations, kExpectationsDoc, "expectations",
                  [&](io::Reader& r) { fields(r, e); });

  VerifyReport report;
  const auto header = [&](bool holds, const std::string& failure) {
    ++report.checks;
    if (!holds) report.failures.push_back("header: " + failure);
  };
  if (e.scenario) {
    header(doc.scenario == *e.scenario,
           "scenario is '" + doc.scenario + "', expected '" + *e.scenario + "'");
  }
  if (e.points) {
    header(doc.points.size() == *e.points, "document has " + std::to_string(doc.points.size()) +
                                               " points, expected " + std::to_string(*e.points));
  }
  if (e.min_total_trials) {
    std::uint64_t total = 0;
    for (const io::ResultPoint& point : doc.points) total += point.trials;
    header(total >= *e.min_total_trials, std::to_string(total) + " total trials, expected >= " +
                                             std::to_string(*e.min_total_trials));
  }
  for (const io::JsonValue& check : e.checks) {
    const std::string kind = check.at(kKindKey).as_string();
    ++report.checks;
    if (kind == "range") check_range(doc, check, report);
    else if (kind == "monotone") check_monotone(doc, check, report);
    else if (kind == "accounting") check_accounting(doc, check, report);
    else if (kind == "ci_contains") check_ci_contains(doc, check, report);
    else if (kind == "reference") check_reference(doc, check, report);
    else if (kind == "analytic") check_analytic(doc, check, report);
    else throw InvalidArgument("verify: unknown check kind '" + kind + "'");
  }
  detail::require(report.checks > 0,
                  "verify: expectations declare no checks at all");
  return report;
}

std::string reference_fixture(const io::ResultDoc& doc, const std::string& spec_text) {
  ReferenceCheck reference;
  reference.spec_digest = fnv1a_digest(spec_text);
  reference.seed = doc.seed;
  for (const io::ResultPoint& point : doc.points) reference.points.push_back({point});
  Expectations e;
  e.scenario = doc.scenario;
  e.points = doc.points.size();
  e.checks.push_back(io::write_object([&](io::Writer& w) {
    const std::string kind = "reference";
    w(kKindKey, kind);
    fields(w, reference);
  }));
  return io::dump_json_pretty(io::write_struct(e));
}

VerifyReport verify_result_files(const std::string& result_path,
                                 const std::string& expectations_path) {
  const io::ResultDoc doc = io::parse_result_json(io::read_file(result_path, "farm"));
  const io::JsonValue expectations = io::parse_json(io::read_file(expectations_path, "farm"));
  return verify_result(doc, expectations);
}

}  // namespace uwb::farm
