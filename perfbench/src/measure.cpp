#include "measure.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"

namespace perfbench {

double median(std::vector<double> values) {
  uwb::detail::require(!values.empty(), "median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  uwb::detail::require(values.size() >= 2, "quartiles: need at least two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, for i = 1..3
  // j = clamp(i*m // 4, 1, n-1), delta = i*m - 4*j (may leave 0..4 after
  // the clamp: that extrapolates, as Python does),
  // q_i = (x[j-1]*(4-delta) + x[j]*delta) / 4.
  const auto n = static_cast<long long>(values.size());
  const long long m = n + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * m - 4 * j);
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                values[static_cast<std::size_t>(j)] * delta) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

std::vector<SpanRecord> collect_spans(const uwb::obs::TraceRecorder& recorder) {
  std::vector<SpanRecord> spans;
  for (const auto& log : recorder.merged()) {
    for (const uwb::obs::TraceEvent& event : log.events) {
      if (event.kind != uwb::obs::TraceEvent::Kind::kSpan) continue;
      SpanRecord span;
      span.tid = log.tid;
      span.category = event.category;
      span.name = event.name;
      span.ts_us = event.ts_us;
      span.dur_us = event.dur_us;
      for (const auto& arg : event.args) {
        if (arg.key == "count" && arg.is_number) {
          span.count = std::strtoull(arg.value.c_str(), nullptr, 10);
        }
      }
      spans.push_back(std::move(span));
    }
  }
  return spans;
}

std::vector<std::uint64_t> self_times_us(const std::vector<SpanRecord>& spans) {
  // Per thread, walk spans by start time (longer first on ties, so a parent
  // precedes a child that starts with it) keeping the chain of open spans;
  // a span's parent is the innermost open span whose interval contains
  // its start.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&spans](std::size_t a, std::size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].ts_us != spans[b].ts_us) return spans[a].ts_us < spans[b].ts_us;
    return spans[a].dur_us > spans[b].dur_us;
  });

  // RAII spans on one thread nest or follow each other, and both ends are
  // truncated to the same microsecond clock, so direct children never
  // overlap each other or overhang their parent: coverage is their sum.
  std::vector<std::uint64_t> covered(spans.size(), 0);
  std::vector<std::size_t> open;
  std::size_t current_tid = 0;
  for (const std::size_t i : order) {
    const SpanRecord& span = spans[i];
    if (span.tid != current_tid) open.clear();
    current_tid = span.tid;
    while (!open.empty()) {
      const SpanRecord& top = spans[open.back()];
      if (span.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += span.dur_us;
    open.push_back(i);
  }

  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur_us - std::min(covered[i], spans[i].dur_us);
  }
  return self;
}

std::map<std::string, std::uint64_t> self_time_by_category(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times_us(spans);
  std::map<std::string, std::uint64_t> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) totals[spans[i].category] += self[i];
  return totals;
}

std::uint64_t executed_trials(const std::vector<SpanRecord>& spans) {
  std::uint64_t executed = 0;
  for (const SpanRecord& span : spans) {
    if (span.category == "engine" && span.name == "trials") executed += span.count;
  }
  return executed;
}

SpanTotal span_total(const std::vector<SpanRecord>& spans, const std::string& category,
                     const std::string& name_prefix) {
  SpanTotal total;
  for (const SpanRecord& span : spans) {
    if (span.category == category && span.name.rfind(name_prefix, 0) == 0) {
      ++total.spans;
      total.dur_us += span.dur_us;
    }
  }
  return total;
}

}  // namespace perfbench
