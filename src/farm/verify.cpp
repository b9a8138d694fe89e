#include "farm/verify.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "common/error.h"
#include "common/math_utils.h"
#include "farm/farm_state.h"
#include "io/fields.h"
#include "io/file.h"
#include "stats/binomial_ci.h"

namespace uwb::farm {

namespace {

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
std::vector<const io::ResultPoint*> select(const io::ResultDoc& doc,
                                           const io::JsonValue* where) {
  std::vector<const io::ResultPoint*> out;
  for (const io::ResultPoint& point : doc.points) {
    bool match = true;
    if (where != nullptr) {
      for (const auto& [key, value] : where->members()) {
        if (tag_of(point, key) != value.as_string()) {
          match = false;
          break;
        }
      }
    }
    if (match) out.push_back(&point);
  }
  return out;
}

std::string describe_where(const io::JsonValue* where) {
  if (where == nullptr || where->members().empty()) return "all points";
  std::string out;
  for (const auto& [key, value] : where->members()) {
    if (!out.empty()) out += ", ";
    out += key + "=" + value.as_string();
  }
  return out;
}

void check_range(const io::ResultDoc& doc, const io::JsonValue& check,
                 VerifyReport& report) {
  const std::string metric = check.at("metric").as_string();
  const io::JsonValue* where = check.find("where");
  const io::JsonValue* min = check.find("min");
  const io::JsonValue* max = check.find("max");
  detail::require(min != nullptr || max != nullptr,
                  "verify: range check on '" + metric + "' has neither min nor max");
  const auto points = select(doc, where);
  if (points.empty()) {
    report.failures.push_back("range '" + metric + "' (" + describe_where(where) +
                              "): selects no points");
    return;
  }
  for (const io::ResultPoint* point : points) {
    const double v = point_value(*point, metric);
    if (min != nullptr && v < min->as_double()) {
      report.failures.push_back("range '" + metric + "': point " +
                                std::to_string(point->index) + " ('" + point->label +
                                "') has " + io::format_double(v) + " < min " +
                                min->number_text());
    }
    if (max != nullptr && v > max->as_double()) {
      report.failures.push_back("range '" + metric + "': point " +
                                std::to_string(point->index) + " ('" + point->label +
                                "') has " + io::format_double(v) + " > max " +
                                max->number_text());
    }
  }
}

void check_monotone(const io::ResultDoc& doc, const io::JsonValue& check,
                    VerifyReport& report) {
  const std::string metric = check.at("metric").as_string();
  const std::string axis = check.at("axis").as_string();
  const std::string direction = check.at("direction").as_string();
  detail::require(direction == "nonincreasing" || direction == "nondecreasing",
                  "verify: monotone direction must be nonincreasing or "
                  "nondecreasing, got '" + direction + "'");
  const io::JsonValue* tolerance_v = check.find("tolerance");
  const double tolerance = tolerance_v == nullptr ? 0.0 : tolerance_v->as_double();
  const io::JsonValue* where = check.find("where");
  const io::JsonValue* group_by = check.find("group_by");

  // Group key = the group_by tag values joined; one group when absent.
  std::map<std::string, std::vector<const io::ResultPoint*>> groups;
  for (const io::ResultPoint* point : select(doc, where)) {
    std::string key;
    if (group_by != nullptr) {
      for (const io::JsonValue& tag : group_by->items()) {
        key += tag_of(*point, tag.as_string()) + "|";
      }
    }
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
  const io::JsonValue* where = check.find("where");
  const io::JsonValue* value_v = check.find("value");
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
    const double v = value_v != nullptr ? value_v->as_double()
                                        : parse_literal(point->ber, "ber");
    if (v < lo || v > hi) {
      report.failures.push_back(
          at + ": [" + io::format_double(lo) + ", " + io::format_double(hi) +
          "] does not contain " +
          (value_v != nullptr ? value_v->number_text() : "its own ber ") +
          (value_v != nullptr ? "" : io::format_double(v)));
    }
  }
}

void check_accounting(const io::ResultDoc& doc, const io::JsonValue& check,
                      VerifyReport& report) {
  const io::JsonValue* min_trials_v = check.find("min_trials");
  const std::uint64_t min_trials =
      min_trials_v == nullptr ? 1 : min_trials_v->as_uint64();
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

/// A fixture point as a result point: the counts and estimate an interval
/// is recomputed from.
io::ResultPoint fixture_point(const io::JsonValue& v) {
  io::ResultPoint point;
  point.label = v.at("label").as_string();
  point.errors = v.at("errors").as_uint64();
  point.bits = v.at("bits").as_uint64();
  point.ber = v.at("ber").number_text();
  point.ci95 = v.at("ci95").number_text();
  if (const io::JsonValue* weighted = v.find("weighted")) point.weighted = weighted->as_bool();
  return point;
}

void check_reference(const io::ResultDoc& doc, const io::JsonValue& check,
                     VerifyReport& report) {
  std::map<std::string, io::ResultPoint> fixture;
  for (const io::JsonValue& v : check.at("points").items()) {
    io::ResultPoint point = fixture_point(v);
    const std::string label = point.label;
    detail::require(fixture.emplace(label, std::move(point)).second,
                    "verify: reference fixture repeats the label '" + label + "'");
  }
  const io::JsonValue* where = check.find("where");
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
  const std::string axis = check.at("axis").as_string();
  const double loss_db = check.at("loss_db").as_double();
  detail::require(loss_db >= 0.0, "verify: analytic loss_db must be >= 0");
  const io::JsonValue* where = check.find("where");
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
                                check.at("loss_db").number_text() + " dB");
    }
  }
}

}  // namespace

VerifyReport verify_result(const io::ResultDoc& doc,
                           const io::JsonValue& expectations) {
  const io::JsonValue* version = expectations.find("version");
  detail::require(version != nullptr, "verify: expectations missing format version");
  detail::require(version->as_int() == kExpectationsVersion,
                  "verify: expectations version " + version->number_text() +
                      " does not match this binary's version " +
                      std::to_string(kExpectationsVersion));

  VerifyReport report;
  const io::JsonValue* checks = nullptr;
  for (const auto& [key, value] : expectations.members()) {
    if (key == "version") continue;
    else if (key == "scenario") {
      ++report.checks;
      if (doc.scenario != value.as_string()) {
        report.failures.push_back("header: scenario is '" + doc.scenario +
                                  "', expected '" + value.as_string() + "'");
      }
    } else if (key == "points") {
      ++report.checks;
      if (doc.points.size() != value.as_uint64()) {
        report.failures.push_back("header: document has " +
                                  std::to_string(doc.points.size()) +
                                  " points, expected " + value.number_text());
      }
    } else if (key == "min_total_trials") {
      ++report.checks;
      std::uint64_t total = 0;
      for (const io::ResultPoint& point : doc.points) total += point.trials;
      if (total < value.as_uint64()) {
        report.failures.push_back("header: " + std::to_string(total) +
                                  " total trials, expected >= " + value.number_text());
      }
    } else if (key == "checks") {
      checks = &value;
    } else {
      throw InvalidArgument("verify: expectations: unknown key '" + key + "'");
    }
  }
  if (checks != nullptr) {
    for (const io::JsonValue& check : checks->items()) {
      const std::string kind = check.at("check").as_string();
      ++report.checks;
      if (kind == "range") check_range(doc, check, report);
      else if (kind == "monotone") check_monotone(doc, check, report);
      else if (kind == "accounting") check_accounting(doc, check, report);
      else if (kind == "ci_contains") check_ci_contains(doc, check, report);
      else if (kind == "reference") check_reference(doc, check, report);
      else if (kind == "analytic") check_analytic(doc, check, report);
      else throw InvalidArgument("verify: unknown check kind '" + kind + "'");
    }
  }
  detail::require(report.checks > 0,
                  "verify: expectations declare no checks at all");
  return report;
}

std::string reference_fixture(const io::ResultDoc& doc, const std::string& spec_text) {
  io::JsonValue points = io::JsonValue::array();
  for (const io::ResultPoint& point : doc.points) {
    io::JsonValue v = io::JsonValue::object();
    v.set("label", io::JsonValue::string(point.label));
    v.set("errors", io::JsonValue::number(point.errors));
    v.set("bits", io::JsonValue::number(point.bits));
    v.set("ber", io::JsonValue::number_literal(point.ber));
    v.set("ci95", io::JsonValue::number_literal(point.ci95));
    if (point.weighted) v.set("weighted", io::JsonValue::boolean(true));
    points.push_back(std::move(v));
  }
  io::JsonValue reference = io::JsonValue::object();
  reference.set("check", io::JsonValue::string("reference"));
  reference.set("spec_digest", io::hex_digest_to_json(fnv1a_digest(spec_text)));
  reference.set("seed", io::JsonValue::number(doc.seed));
  reference.set("points", std::move(points));
  io::JsonValue checks = io::JsonValue::array();
  checks.push_back(std::move(reference));
  io::JsonValue root = io::JsonValue::object();
  root.set("version", io::JsonValue::number(kExpectationsVersion));
  root.set("scenario", io::JsonValue::string(doc.scenario));
  root.set("points", io::JsonValue::number(static_cast<std::uint64_t>(doc.points.size())));
  root.set("checks", std::move(checks));
  return io::dump_json_pretty(root);
}

VerifyReport verify_result_files(const std::string& result_path,
                                 const std::string& expectations_path) {
  const io::ResultDoc doc = io::parse_result_json(io::read_file(result_path, "farm"));
  const io::JsonValue expectations = io::parse_json(io::read_file(expectations_path, "farm"));
  return verify_result(doc, expectations);
}

}  // namespace uwb::farm
