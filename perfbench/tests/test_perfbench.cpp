// Tests for the benchmark's own code: order statistics, self time over
// nested spans, executed trials counted from a hand-built trace, and the
// BENCHMARK.json round trip (including that the committed file is the
// catalogue's rendering).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog.h"
#include "common/error.h"
#include "measure.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

SpanRecord span(std::size_t tid, const std::string& category, std::uint64_t ts,
                std::uint64_t dur) {
  SpanRecord s;
  s.tid = tid;
  s.category = category;
  s.name = category;
  s.ts_us = ts;
  s.dur_us = dur;
  return s;
}

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
  EXPECT_THROW((void)median({}), uwb::InvalidArgument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles five = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 4.0);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
  // Two values extrapolate past the data: quantiles([1, 2], n=4) ==
  // [0.75, 1.5, 2.25].
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW((void)quartiles({1.0}), uwb::InvalidArgument);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // parent [0,100) holds a [10,40) (which holds grandchild [15,25)) and
  // b [50,70); another thread's span overlapping in time is no child.
  const std::vector<SpanRecord> spans = {
      span(0, "parent", 0, 100), span(0, "a", 10, 30), span(0, "grand", 15, 10),
      span(0, "b", 50, 20),      span(1, "other", 5, 90),
  };
  const std::vector<std::uint64_t> self = self_times_us(spans);
  EXPECT_EQ(self[0], 50u);  // 100 - (30 + 20)
  EXPECT_EQ(self[1], 20u);  // 30 - 10
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 20u);
  EXPECT_EQ(self[4], 90u);
}

TEST(Spans, SpanStartingAtAnEndIsASiblingNotAChild) {
  // c2 starts exactly where c1 ends and next exactly where parent ends;
  // input order does not matter.
  const std::vector<SpanRecord> spans = {
      span(0, "next", 150, 10), span(0, "c2", 130, 10), span(0, "parent", 100, 50),
      span(0, "c1", 110, 20),
  };
  const std::vector<std::uint64_t> self = self_times_us(spans);
  EXPECT_EQ(self[0], 10u);
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 20u);  // 50 - (20 + 10)
  EXPECT_EQ(self[3], 20u);

  const auto by_category = self_time_by_category(spans);
  EXPECT_EQ(by_category.at("parent"), 20u);
  EXPECT_EQ(by_category.at("next"), 10u);
}

TEST(Spans, ExecutedTrialsFromHandBuiltTrace) {
  uwb::obs::TraceRecorder recorder;
  const auto record = [&recorder](const char* category, const char* name,
                                  std::uint64_t ts, std::uint64_t dur,
                                  std::uint64_t count) {
    uwb::obs::TraceEvent event;
    event.kind = uwb::obs::TraceEvent::Kind::kSpan;
    event.category = category;
    event.name = name;
    event.ts_us = ts;
    event.dur_us = dur;
    event.args.push_back(uwb::obs::trace_arg("first", std::uint64_t{0}));
    event.args.push_back(uwb::obs::trace_arg("count", count));
    recorder.record(std::move(event));
  };
  record("pool", "task", 0, 100, 0);
  record("engine", "trials", 5, 40, 32);
  record("engine", "trials", 50, 45, 17);
  record("engine", "point CM1", 200, 100, 99);  // not a trials chunk
  recorder.instant("engine", "stop");
  recorder.counter("engine", "committed_trials", 49.0);
  // A second thread's chunk counts too.
  std::thread([&record] { record("engine", "trials", 0, 10, 3); }).join();

  const std::vector<SpanRecord> spans = collect_spans(recorder);
  EXPECT_EQ(spans.size(), 5u);  // instants and counters dropped
  EXPECT_EQ(executed_trials(spans), 52u);
  const SpanTotal busy = span_total(spans, "engine", "trials");
  EXPECT_EQ(busy.spans, 3u);
  EXPECT_EQ(busy.dur_us, 95u);
  EXPECT_EQ(span_total(spans, "pool", "task").spans, 1u);
  // The task's self time is what its chunks leave uncovered.
  const auto self = self_time_by_category(spans);
  EXPECT_EQ(self.at("pool"), 15u);
}

TEST(Catalog, BenchmarkJsonRoundTrips) {
  const BenchmarkSpec spec = catalogue_spec();
  const std::string text = render_benchmark_json(spec);
  EXPECT_EQ(parse_benchmark_json(text), spec);
  EXPECT_EQ(render_benchmark_json(parse_benchmark_json(text)), text);
  EXPECT_THROW((void)parse_benchmark_json("{\"command\": []}"), uwb::InvalidArgument);
}

TEST(Catalog, CommittedBenchmarkJsonIsTheCatalogue) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json", std::ios::binary);
  ASSERT_TRUE(in.good()) << "BENCHMARK.json missing; write it with "
                            "python3 perfbench/run.py --write-benchmark-json BENCHMARK.json";
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), render_benchmark_json(catalogue_spec()))
      << "BENCHMARK.json is stale; rewrite it with --write-benchmark-json";
}

TEST(Catalog, NamesAndBoundsFollowTheContract) {
  const BenchmarkSpec spec = catalogue_spec();
  ASSERT_GE(spec.workloads.size(), 2u);
  bool has_setup = false;
  for (const MetricDef& m : spec.end_to_end) {
    EXPECT_GT(m.bound, 0.0) << m.name;
    EXPECT_LE(m.bound, 0.25) << m.name;
    has_setup = has_setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower");
  }
  EXPECT_TRUE(has_setup);
  for (const auto& [name, why] : spec.workloads) {
    EXPECT_LE(why.size(), 200u) << name;
    EXPECT_EQ(why.find('\n'), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace perfbench
