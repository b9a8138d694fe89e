#pragma once
/// \file measure.h
/// \brief The benchmark's own arithmetic: order statistics over repeated
///        timings, and the span bookkeeping that turns a recorded trace into
///        per-layer numbers (self time, executed trials, busy time).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Median of \p values (mean of the middle two for an even count).
/// \throws uwb::InvalidArgument on an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// First, second and third quartile with Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method), so the
/// spread printed here is the spread an external reader computes from the
/// same samples. \throws uwb::InvalidArgument with fewer than two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// One complete span from a trace, flattened for analysis.
struct SpanRecord {
  std::size_t tid = 0;  ///< recording thread (spans nest only within one)
  std::string category;
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t count = 0;  ///< the span's numeric "count" argument, 0 if absent
};

/// Every span a recorder holds (instants and counter samples dropped).
/// Same quiesce contract as TraceRecorder::merged().
[[nodiscard]] std::vector<SpanRecord> collect_spans(const uwb::obs::TraceRecorder& recorder);

/// Self time of every span, index-aligned with \p spans: its duration minus
/// the time its direct children cover. A span's parent is the innermost
/// span on the same thread whose interval [ts, ts + dur) holds its start.
[[nodiscard]] std::vector<std::uint64_t> self_times_us(const std::vector<SpanRecord>& spans);

/// Summed self time per span category, in microseconds.
[[nodiscard]] std::map<std::string, std::uint64_t> self_time_by_category(
    const std::vector<SpanRecord>& spans);

/// Trials the engine executed: the summed "count" of its per-chunk
/// `engine/trials` spans (every executed trial lands in exactly one chunk,
/// committed or not).
[[nodiscard]] std::uint64_t executed_trials(const std::vector<SpanRecord>& spans);

/// Summed duration of the spans of \p category whose name starts with
/// \p name_prefix, and how many there were.
struct SpanTotal {
  std::uint64_t spans = 0;
  std::uint64_t dur_us = 0;
};
[[nodiscard]] SpanTotal span_total(const std::vector<SpanRecord>& spans,
                                   const std::string& category,
                                   const std::string& name_prefix);

}  // namespace perfbench
