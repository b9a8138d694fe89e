#include "engine/sinks.h"

#include <algorithm>
#include <cinttypes>
#include <sstream>

#include "io/file.h"
#include "io/json.h"
#include "io/result_io.h"
#include "sim/table.h"

namespace uwb::engine {

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Metric columns for tabular sinks: union over the sweep in
/// first-appearance order, so a sweep whose early points miss a metric
/// (e.g. zero detected trials) still shows every recorded metric.
std::vector<std::string> metric_name_union(const std::vector<PointRecord>& records) {
  std::vector<std::string> names;
  for (const auto& record : records) {
    for (const auto& [name, stats] : record.metrics.entries()) {
      (void)stats;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

}  // namespace

std::string default_result_path(const std::string& scenario_name, const std::string& ext) {
  return "bench/results/" + scenario_name + "." + ext;
}

// ----------------------------------------------------- ConsoleTableSink ----

ConsoleTableSink::ConsoleTableSink(std::FILE* out) : out_(out) {}

void ConsoleTableSink::begin(const SweepInfo& info) {
  std::fprintf(out_, "sweep '%s': %zu points, seed %" PRIu64 "\n", info.scenario.c_str(),
               info.num_points, info.seed);
}

void ConsoleTableSink::point(const PointRecord& record) { records_.push_back(record); }

void ConsoleTableSink::end(const SweepInfo& info) {
  (void)info;
  if (records_.empty()) return;
  const std::vector<std::string> metric_names = metric_name_union(records_);
  std::vector<std::string> headers;
  for (const auto& [key, value] : records_.front().spec.tags) {
    (void)value;
    headers.push_back(key);
  }
  for (const char* h : {"BER", "ci95", "ci_lo", "ci_hi", "errors", "bits", "trials"}) {
    headers.emplace_back(h);
  }
  for (const auto& name : metric_names) headers.push_back(name);
  headers.emplace_back("time");
  sim::Table table(headers);
  for (const auto& record : records_) {
    std::vector<std::string> row;
    for (const auto& [key, value] : record.spec.tags) {
      (void)key;
      row.push_back(value);
    }
    row.push_back(sim::Table::sci(record.ber.ber));
    row.push_back(sim::Table::sci(record.ber.ci95));
    row.push_back(sim::Table::sci(record.ber.ci_lo));
    row.push_back(sim::Table::sci(record.ber.ci_hi));
    row.push_back(sim::Table::integer(static_cast<long long>(record.ber.errors)));
    row.push_back(sim::Table::integer(static_cast<long long>(record.ber.bits)));
    row.push_back(sim::Table::integer(static_cast<long long>(record.ber.trials)));
    for (const auto& name : metric_names) {
      const sim::MetricStats* stats = record.metrics.find(name);
      row.push_back(stats == nullptr ? "--" : sim::Table::num(stats->mean(), 4));
    }
    row.push_back(sim::Table::num(record.elapsed_s, 2) + " s");
    table.add_row(std::move(row));
  }
  std::fprintf(out_, "%s", table.to_string().c_str());
}

// ------------------------------------------------------------- JsonSink ----

JsonSink::JsonSink(std::string path) : path_(std::move(path)) {}

void JsonSink::point(const PointRecord& record) { records_.push_back(record); }

void JsonSink::end(const SweepInfo& info) {
  // The sink serializes through the shared io::ResultDoc formatter so the
  // CLI's shard-merge path reproduces this layout byte for byte.
  io::ResultDoc doc;
  doc.scenario = info.scenario;
  doc.seed = info.seed;
  doc.stop = info.stop;
  doc.points.reserve(records_.size());
  for (const auto& record : records_) {
    io::ResultPoint point;
    point.index = record.index;
    point.label = record.spec.label;
    point.tags = record.spec.tags;
    point.ber = io::format_double(record.ber.ber);
    point.ci95 = io::format_double(record.ber.ci95);
    point.errors = record.ber.errors;
    point.bits = record.ber.bits;
    point.trials = record.ber.trials;
    point.ci_lo = io::format_double(record.ber.ci_lo);
    point.ci_hi = io::format_double(record.ber.ci_hi);
    point.ci_method = stats::to_string(record.ber.ci_method);
    point.weighted = record.ber.weighted;
    if (record.ber.weighted) point.ess = io::format_double(record.ber.ess);
    for (const auto& [name, stats] : record.metrics.entries()) {
      io::ResultMetric metric;
      metric.name = name;
      metric.count = stats.count;
      metric.mean = io::format_double(stats.mean());
      metric.variance = io::format_double(stats.variance());
      point.metrics.push_back(std::move(metric));
    }
    doc.points.push_back(std::move(point));
  }
  io::write_file(path_, io::write_result_json(doc), "JsonSink");
}

// -------------------------------------------------------------- CsvSink ----

CsvSink::CsvSink(std::string path) : path_(std::move(path)) {}

void CsvSink::point(const PointRecord& record) { records_.push_back(record); }

void CsvSink::end(const SweepInfo& info) {
  (void)info;
  std::ostringstream out;
  // Per-metric columns (<name>_count/_mean/_var); a point that never saw
  // a metric leaves the cells empty.
  const std::vector<std::string> metric_names = metric_name_union(records_);
  out << "index";
  if (!records_.empty()) {
    for (const auto& [key, value] : records_.front().spec.tags) {
      (void)value;
      out << "," << csv_escape(key);
    }
  }
  out << ",ber,ci95,ci_lo,ci_hi,ci_method,errors,bits,trials,ess";
  for (const auto& name : metric_names) {
    out << "," << csv_escape(name) << "_count," << csv_escape(name) << "_mean,"
        << csv_escape(name) << "_var";
  }
  out << "\n";
  for (const auto& record : records_) {
    out << record.index;
    for (const auto& [key, value] : record.spec.tags) {
      (void)key;
      out << "," << csv_escape(value);
    }
    out << "," << io::format_double(record.ber.ber) << ","
        << io::format_double(record.ber.ci95) << ","
        << io::format_double(record.ber.ci_lo) << ","
        << io::format_double(record.ber.ci_hi) << ","
        << stats::to_string(record.ber.ci_method) << "," << record.ber.errors << ","
        << record.ber.bits << "," << record.ber.trials << ","
        << io::format_double(record.ber.ess);
    for (const auto& name : metric_names) {
      const sim::MetricStats* stats = record.metrics.find(name);
      if (stats == nullptr) {
        out << ",,,";
      } else {
        out << "," << stats->count << "," << io::format_double(stats->mean()) << ","
            << io::format_double(stats->variance());
      }
    }
    out << "\n";
  }
  io::write_file(path_, out.str(), "CsvSink");
}

}  // namespace uwb::engine
