// Tests for the run-telemetry subsystem (src/obs/): the trace recorder's
// multi-thread collection and Chrome trace-event export, the run-manifest
// round trip, FFT plan-cache and pool worker counters, the progress meter,
// and -- the load-bearing contract -- byte-identical sweep results with
// telemetry on or off at any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "dsp/fft.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "engine/thread_pool.h"
#include "farm/farm_state.h"
#include "io/json.h"
#include "obs/counters.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "document_checks.h"

namespace uwb::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------- trace recorder ----

TEST(TraceRecorder, CollectsSpansFromManyThreads) {
  TraceRecorder recorder;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 100;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.name_thread("worker " + std::to_string(t));
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        Span span(&recorder, "test", "op " + std::to_string(i));
        span.arg("i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.event_count(), kThreads * kSpansPerThread);
  const std::vector<TraceRecorder::ThreadLog> logs = recorder.merged();
  ASSERT_EQ(logs.size(), kThreads);
  std::set<std::size_t> tids;
  for (const auto& log : logs) {
    tids.insert(log.tid);
    EXPECT_EQ(log.events.size(), kSpansPerThread);
    EXPECT_NE(log.name.find("worker "), std::string::npos);
    std::uint64_t prev_ts = 0;
    for (const auto& event : log.events) {
      EXPECT_EQ(event.kind, TraceEvent::Kind::kSpan);
      // Within one thread spans are recorded at finish time, in order.
      EXPECT_GE(event.ts_us + event.dur_us, prev_ts);
      prev_ts = event.ts_us;
      ASSERT_EQ(event.args.size(), 1u);
      EXPECT_TRUE(event.args[0].is_number);
    }
  }
  EXPECT_EQ(tids.size(), kThreads);  // registration indices are unique
}

TEST(TraceRecorder, NullRecorderSpansAreInertAndFinishIsIdempotent) {
  Span inert(nullptr, "test", "never recorded");
  inert.arg("k", std::uint64_t{1});
  inert.finish();
  inert.finish();

  TraceRecorder recorder;
  {
    Span span(&recorder, "test", "once");
    span.finish();
    span.finish();  // second finish must not record a duplicate
  }
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(TraceRecorder, InstantsAndCountersCarryTheirPayload) {
  TraceRecorder recorder;
  recorder.instant("engine", "stop",
                   {trace_arg("reason", std::string("min_errors")),
                    trace_arg("trials", std::uint64_t{42})});
  recorder.counter("engine", "committed_trials", 42.0);

  const auto logs = recorder.merged();
  ASSERT_EQ(logs.size(), 1u);
  ASSERT_EQ(logs[0].events.size(), 2u);
  const TraceEvent& instant = logs[0].events[0];
  EXPECT_EQ(instant.kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(instant.name, "stop");
  ASSERT_EQ(instant.args.size(), 2u);
  EXPECT_EQ(instant.args[0].value, "min_errors");
  EXPECT_FALSE(instant.args[0].is_number);
  EXPECT_EQ(instant.args[1].value, "42");
  EXPECT_TRUE(instant.args[1].is_number);
  const TraceEvent& counter = logs[0].events[1];
  EXPECT_EQ(counter.kind, TraceEvent::Kind::kCounter);
  ASSERT_EQ(counter.args.size(), 1u);
  EXPECT_TRUE(counter.args[0].is_number);
}

// ------------------------------------------------------------ chrome export ----

TEST(ChromeTrace, ExportIsWellFormedTraceEventJson) {
  TraceRecorder recorder;
  recorder.name_thread("main");
  {
    Span span(&recorder, "engine", "point A");
    span.arg("index", std::uint64_t{0});
  }
  recorder.instant("engine", "stop",
                   {trace_arg("reason", std::string("max_trials")), trace_arg("ratio", 0.5),
                    trace_arg("label", std::string("A"))});
  recorder.counter("engine", "committed_trials", 10.0);
  std::thread other([&recorder] {
    recorder.name_thread("helper");
    Span span(&recorder, "pool", "task");
  });
  other.join();

  const std::string json = write_chrome_trace_json(recorder);
  const io::JsonValue doc = io::parse_json(json);
  const io::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::set<std::string> phases;
  std::set<std::string> thread_names;
  std::uint64_t span_count = 0;
  for (const io::JsonValue& event : events.items()) {
    ASSERT_TRUE(event.is_object());
    const std::string ph = event.at("ph").as_string();
    phases.insert(ph);
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M") << ph;
    (void)event.at("name").as_string();
    (void)event.at("pid").as_uint64();
    (void)event.at("tid").as_uint64();
    if (ph == "X") {
      ++span_count;
      (void)event.at("ts").as_uint64();
      (void)event.at("dur").as_uint64();
      (void)event.at("cat").as_string();
    }
    if (ph == "M" && event.at("name").as_string() == "thread_name") {
      thread_names.insert(event.at("args").at("name").as_string());
    }
    if (ph == "i") {
      EXPECT_EQ(event.at("s").as_string(), "t");
    }
  }
  EXPECT_EQ(span_count, 2u);
  EXPECT_EQ(phases, (std::set<std::string>{"X", "i", "C", "M"}));
  EXPECT_TRUE(thread_names.count("main"));
  EXPECT_TRUE(thread_names.count("helper"));

  // Argument rendering: numbers unquoted, strings quoted.
  EXPECT_NE(json.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"A\""), std::string::npos);
}

TEST(ChromeTrace, WriteCreatesTheFile) {
  TraceRecorder recorder;
  { Span span(&recorder, "test", "op"); }
  const std::string path = "test_results/obs_trace_smoke.trace.json";
  write_chrome_trace(recorder, path);
  const std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_NO_THROW((void)io::parse_json(bytes));
}

// ------------------------------------------------------------- run manifest ----

RunManifest sample_manifest() {
  RunManifest manifest;
  manifest.scenario = "gen2_cm_grid";
  manifest.seed = 0x5eed'0000'cafe'f00dULL;
  manifest.workers = 2;
  manifest.shard_index = 1;
  manifest.shard_count = 3;
  manifest.stop.min_errors = 40;
  manifest.stop.max_bits = 120000;
  manifest.stop.max_trials = 100000;
  manifest.stop.metric = "timing_correct";
  manifest.result_path = "bench/results/run.json";
  manifest.trace_path = "bench/results/run.trace.json";
  manifest.build = {"g++ 12.2.0", "release"};
  manifest.counters.pool = {{100, 3, 1500}, {80, 10, 2500}};
  manifest.counters.cache_hits = 5;
  manifest.counters.cache_disk_loads = 1;
  manifest.counters.cache_generated = 2;
  manifest.counters.cache_sv_draws = 128;
  manifest.counters.fft_plan_hits = 400;
  manifest.counters.fft_plan_misses = 3;
  manifest.counters.trials_executed = 70;
  manifest.counters.trials_committed = 56;
  manifest.counters.wall_s = 12.25;
  manifest.counters.peak_rss_mb = 56.5;
  manifest.stages[Stage::kRxFrontend] = {56, 210'000'000, 1'500'000, 11'000'000, 860'160};
  manifest.stages[Stage::kFftExec] = {392, 21'000'000, 11'000, 4'300'000, 1'720'320};
  manifest.points.push_back({0, "CM1 | 8 | full", 0.5, 46, 15272, 41, {}});
  manifest.points.push_back({4, "CM1 | 8 | mf_only", 0.125, 10, 3320, 57, {}});
  manifest.points[0].stages[Stage::kRxFrontend] = {46, 180'000'000, 1'500'000, 11'000'000, 706'560};
  return manifest;
}

/// The manifest's document shape: the pool totals are derived from
/// per_worker, and stage rows are keyed by their stage name.
test::DocumentShape manifest_shape() {
  test::DocumentShape shape;
  shape.fixed = {"/counters/pool/workers", "/counters/pool/tasks_executed",
                 "/counters/pool/tasks_stolen", "/counters/pool/idle_us_total",
                 "/stages/*/stage", "/points/*/stages/*/stage"};
  shape.rederive = [](const io::JsonValue& doc) {
    std::uint64_t executed = 0, stolen = 0, idle_us = 0;
    for (const io::JsonValue& w : doc.at("counters").at("pool").at("per_worker").items()) {
      executed += w.at("executed").as_uint64();
      stolen += w.at("stolen").as_uint64();
      idle_us += w.at("idle_us").as_uint64();
    }
    const test::Path pool = {"counters", "pool"};
    io::JsonValue out = doc;
    for (const auto& [key, total] : {std::pair{"tasks_executed", executed},
                                     std::pair{"tasks_stolen", stolen},
                                     std::pair{"idle_us_total", idle_us}}) {
      test::Path path = pool;
      path.push_back(key);
      out = test::edited(out, path, io::JsonValue::number(total));
    }
    return out;
  };
  shape.optional = {"/interrupted", "/peak_rss_mb", "/counters/trials", "/stages",
                    "/points/*/stages", "/stop/metric"};
  return shape;
}

TEST(RunManifest, EveryFieldRoundTripsAChangedValue) {
  test::expect_every_field_round_trips(sample_manifest(), manifest_to_json, manifest_from_json,
                                       manifest_shape());
}

TEST(RunManifest, MissingKeysThrowUnlessOptional) {
  test::expect_missing_keys_throw_unless_optional(sample_manifest(), manifest_to_json,
                                                  manifest_from_json, manifest_shape());
}

TEST(RunManifest, StopWithACiWidthRoundTripsWhole) {
  // The manifest records the stop rule as the result document does, CI
  // width included.
  RunManifest manifest = sample_manifest();
  manifest.stop.metric.clear();
  manifest.stop.target_rel_ci_width = 0.8;
  const io::JsonValue doc = manifest_to_json(manifest);
  EXPECT_EQ(doc.at("stop").find("metric"), nullptr);
  EXPECT_EQ(doc.at("stop").at("target_rel_ci_width").as_double(), 0.8);
  EXPECT_EQ(manifest_from_json(io::parse_json(io::dump_json_pretty(doc))), manifest);

  // Manifests that wrote an empty metric still load.
  io::JsonValue old_stop = doc.at("stop");
  old_stop.set("metric", io::JsonValue::string(""));
  EXPECT_EQ(manifest_from_json(test::edited(doc, {"stop"}, old_stop)), manifest);
}

TEST(RunManifest, PoolTotalsMustAgreeWithPerWorker) {
  const io::JsonValue doc = manifest_to_json(sample_manifest());
  const io::JsonValue off = test::edited(doc, {"counters", "pool", "tasks_stolen"},
                                         io::JsonValue::number(std::uint64_t{14}));
  EXPECT_THROW((void)manifest_from_json(off), InvalidArgument);
}

TEST(RunManifest, EmptyStageTablesAreOmittedAndParseBackEmpty) {
  RunManifest manifest = sample_manifest();
  manifest.stages = StageTable{};
  manifest.points[0].stages = StageTable{};
  const io::JsonValue doc = manifest_to_json(manifest);
  EXPECT_EQ(doc.find("stages"), nullptr);  // pre-profiler manifest shape
  EXPECT_EQ(doc.at("points").items()[0].find("stages"), nullptr);
  const RunManifest reloaded = manifest_from_json(doc);
  EXPECT_TRUE(reloaded.stages.empty());
  EXPECT_TRUE(reloaded.points[0].stages.empty());
}

TEST(RunManifest, TrialCountersAreOptionalOnRead) {
  // Manifests written before the engine counted trials still load.
  const io::JsonValue doc = manifest_to_json(sample_manifest());
  EXPECT_EQ(doc.at("counters").at("trials").at("executed").as_uint64(), 70u);
  EXPECT_EQ(doc.at("counters").at("trials").at("committed").as_uint64(), 56u);
  io::JsonValue old_doc = io::JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "counters") {
      old_doc.set(key, value);
      continue;
    }
    io::JsonValue counters = io::JsonValue::object();
    for (const auto& [name, table] : value.members()) {
      if (name != "trials") counters.set(name, table);
    }
    old_doc.set(key, std::move(counters));
  }
  const RunManifest reloaded = manifest_from_json(old_doc);
  EXPECT_EQ(reloaded.counters.trials_executed, 0u);
  EXPECT_EQ(reloaded.counters.trials_committed, 0u);
}

TEST(RunManifest, PeakRssIsOptionalOnRead) {
  // Manifests written before the engine read peak RSS still load.
  const io::JsonValue doc = manifest_to_json(sample_manifest());
  EXPECT_EQ(doc.at("peak_rss_mb").as_double(), 56.5);
  io::JsonValue old_doc = io::JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "peak_rss_mb") old_doc.set(key, value);
  }
  EXPECT_EQ(manifest_from_json(old_doc).counters.peak_rss_mb, 0.0);
}

TEST(RunManifest, ParsingIsStrict) {
  EXPECT_THROW((void)manifest_from_json(io::parse_json("{}")), Error);
  EXPECT_THROW((void)manifest_from_json(io::parse_json("{\"scenario\": 3}")), Error);
}

TEST(RunManifest, SampleDocumentBytesArePinned) {
  // Pinned from the hand-written serializer, before the field lists:
  // the manifest's bytes are part of what a run leaves on disk.
  EXPECT_EQ(farm::fnv1a_digest(io::dump_json_pretty(manifest_to_json(sample_manifest()))),
            0xc1d39646ffe39da3ULL);
}

TEST(RunManifest, SidecarPathConvention) {
  EXPECT_EQ(manifest_path_for("a/b.json"), "a/b.json.run.json");
  EXPECT_EQ(manifest_path_for("run.csv"), "run.csv.run.json");
}

TEST(RunManifest, WriteLandsNextToTheResult) {
  const RunManifest manifest = sample_manifest();
  const std::string path = manifest_path_for("test_results/obs_result.json");
  write_run_manifest(manifest, path);
  const io::JsonValue doc = io::parse_json(slurp(path));
  EXPECT_EQ(doc.at("scenario").as_string(), "gen2_cm_grid");
  EXPECT_EQ(doc.at("counters").at("pool").at("workers").as_uint64(), 2u);
}

// ----------------------------------------------------------------- counters ----

TEST(FftPlanCache, CountsMissesThenHits) {
  // Pick a size no other test in this binary touches: the first request
  // must build the plan (miss), the second must be served from cache (hit).
  constexpr std::size_t kSize = 1u << 14;
  const dsp::FftPlanCacheStats before = dsp::fft_plan_cache_stats();
  (void)dsp::fft_plan(kSize);
  const dsp::FftPlanCacheStats after_first = dsp::fft_plan_cache_stats();
  EXPECT_EQ(after_first.misses, before.misses + 1);
  EXPECT_EQ(after_first.hits, before.hits);
  (void)dsp::fft_plan(kSize);
  const dsp::FftPlanCacheStats after_second = dsp::fft_plan_cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
}

TEST(ThreadPool, WorkerStatsAccountForEveryTask) {
  engine::ThreadPool pool(4);
  constexpr std::uint64_t kTasks = 200;
  for (std::uint64_t i = 0; i < kTasks; ++i) pool.submit([] {});
  pool.wait_idle();
  const std::vector<PoolWorkerStats> stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  for (const PoolWorkerStats& s : stats) {
    executed += s.executed;
    stolen += s.stolen;
  }
  EXPECT_EQ(executed, kTasks);  // nothing lost, nothing double-counted
  EXPECT_LE(stolen, executed);
}

TEST(ThreadPool, TracedWorkersEmitTaskSpansAndNames) {
  TraceRecorder recorder;
  constexpr std::uint64_t kTasks = 10;
  {
    engine::ThreadPool pool(2, &recorder);
    for (std::uint64_t i = 0; i < kTasks; ++i) pool.submit([] {});
    pool.wait_idle();
  }  // destruction quiesces the workers before merged()

  std::uint64_t task_spans = 0;
  std::set<std::string> names;
  for (const auto& log : recorder.merged()) {
    names.insert(log.name);
    for (const auto& event : log.events) {
      if (event.kind == TraceEvent::Kind::kSpan) ++task_spans;
      EXPECT_STREQ(event.category, "pool");
    }
  }
  EXPECT_EQ(task_spans, kTasks);
  EXPECT_TRUE(names.count("pool worker 0"));
  EXPECT_TRUE(names.count("pool worker 1"));
}

// ----------------------------------------------------------- stage profiler ----

TEST(StageProfiler, AccumulatesScopesAgainstAHandTimedFixture) {
  StageProfiler profiler;
  {
    ScopedStageProfile scope(&profiler);
    for (int i = 0; i < 3; ++i) {
      StageTimer timer(Stage::kTxModulate, 100);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    StageTimer extra(Stage::kCorrelateRake);
    extra.add_samples(7);
    extra.finish();
    extra.finish();  // idempotent: must not commit a second observation
  }
  const StageTable merged = profiler.merged();
  const StageStats& tx = merged[Stage::kTxModulate];
  EXPECT_EQ(tx.calls, 3u);
  EXPECT_EQ(tx.samples, 300u);
  // Each scope slept 2 ms, so the hand-timed bounds hold per observation.
  EXPECT_GE(tx.min_ns, 2'000'000u);
  EXPECT_GE(tx.max_ns, tx.min_ns);
  EXPECT_GE(tx.total_ns, 3u * tx.min_ns);
  EXPECT_LE(tx.total_ns, 3u * tx.max_ns);
  EXPECT_GE(tx.mean_ns(), 2e6);
  const StageStats& rake = merged[Stage::kCorrelateRake];
  EXPECT_EQ(rake.calls, 1u);
  EXPECT_EQ(rake.samples, 7u);
  EXPECT_EQ(merged[Stage::kFftExec].calls, 0u);  // untouched stages stay zero
}

TEST(StageProfiler, MergesPerThreadAccumulatorsDeterministically) {
  StageProfiler profiler;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kScopes = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler] {
      const ScopedStageProfile scope(&profiler);
      for (std::size_t i = 0; i < kScopes; ++i) {
        StageTimer timer(Stage::kRxFrontend, 10);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const StageTable merged = profiler.merged();
  EXPECT_EQ(merged[Stage::kRxFrontend].calls, kThreads * kScopes);
  EXPECT_EQ(merged[Stage::kRxFrontend].samples, kThreads * kScopes * 10);
  // merged() is a pure fold over quiesced accumulators: repeatable.
  EXPECT_EQ(profiler.merged(), merged);
  profiler.reset();
  EXPECT_TRUE(profiler.merged().empty());
}

TEST(StageProfiler, DisabledThreadNeverRecords) {
  StageProfiler profiler;
  {
    // No active scope on this thread: the timer must stay inert.
    StageTimer timer(Stage::kDemodDecide, 1000);
    timer.add_samples(5);
  }
  {
    const ScopedStageProfile on(&profiler);
    {
      const ScopedStageProfile off(nullptr);  // nested deactivation
      StageTimer timer(Stage::kDemodDecide, 1);
    }
    StageTimer timer(Stage::kDemodDecide, 2);  // binding restored: records
  }
  const StageTable merged = profiler.merged();
  EXPECT_EQ(merged[Stage::kDemodDecide].calls, 1u);
  EXPECT_EQ(merged[Stage::kDemodDecide].samples, 2u);
}

TEST(StageTable, RoundTripsThroughJsonSkippingZeroRows) {
  StageTable table;
  table[Stage::kChannelConvolve] = {12, 34'000'000, 1'000'000, 9'000'000, 49'152};
  table[Stage::kFftExec] = {96, 5'000'000, 20'000, 120'000, 98'304};
  const io::JsonValue rows = stage_table_to_json(table);
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.items().size(), 2u);  // zero-call stages omitted
  EXPECT_EQ(rows.items()[0].at("stage").as_string(), "channel_convolve");
  EXPECT_EQ(stage_table_from_json(rows), table);
  EXPECT_EQ(farm::fnv1a_digest(io::dump_json_pretty(rows)), 0x2bdba62fb9be751dULL);  // pinned bytes
  // Every stage's name reads back; an unknown one throws.
  StageTable every;
  for (StageStats& s : every.stages) s = {1, 2, 2, 2, 3};
  EXPECT_EQ(stage_table_from_json(stage_table_to_json(every)), every);
  EXPECT_THROW((void)stage_table_from_json(io::parse_json(
                   R"([{"stage": "warp_drive", "calls": 1, "total_ns": 1, "min_ns": 1,
                        "max_ns": 1, "samples": 1}])")),
               Error);
}

TEST(StageTable, EveryFieldRoundTripsAndMissingKeysThrow) {
  StageTable table;
  table[Stage::kSyncAcquire] = {3, 9'000, 2'000, 4'000, 768};
  table[Stage::kDemodDecide] = {3, 600, 150, 250, 96};
  test::DocumentShape shape;
  shape.fixed = {"/*/stage"};  // a row's key: renaming it moves the row
  test::expect_every_field_round_trips(table, stage_table_to_json, stage_table_from_json, shape);
  test::expect_missing_keys_throw_unless_optional(table, stage_table_to_json,
                                                  stage_table_from_json, shape);
}

// ------------------------------------------------------------ progress meter ----

TEST(ProgressMeter, WritesHeartbeatAndFinalSummary) {
  std::filesystem::create_directories("test_results");
  const std::string path = "test_results/obs_progress.txt";
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    ProgressOptions options;
    options.out = out;
    options.interval_s = 0.01;
    {
      ProgressMeter meter(options);
      meter.begin_run(2);
      meter.begin_point(0, "point A");
      meter.add_trials(10);
      meter.add_bits(1000);
      meter.add_errors(3);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      meter.end_point();
      meter.end_run();
    }
    std::fclose(out);
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("[progress] sweep started: 2 point(s)"), std::string::npos);
  EXPECT_NE(text.find("point A"), std::string::npos);       // heartbeat fired
  EXPECT_NE(text.find("[progress] done: "), std::string::npos);
  EXPECT_NE(text.find("10 trials"), std::string::npos);
}

// --------------------------------------- the determinism contract, end to end ----

/// A tiny real-link scenario (mirrors test_engine's): gen-2 fast config on
/// AWGN and CM1, with the CM1 points switched to a shared 4-realization
/// channel ensemble so the channel-cache instrumentation path runs too.
engine::ScenarioSpec tiny_ensemble_scenario() {
  txrx::Gen2Config config = sim::gen2_fast();
  txrx::TrialOptions options;
  options.payload_bits = 64;
  options.genie_timing = true;
  engine::Gen2ScenarioBuilder builder("tiny_obs", config, options);
  builder.channels({0, 1}).ebn0_grid({6.0});
  engine::ScenarioSpec spec = builder.build();
  for (engine::PointSpec& point : spec.points) {
    if (point.link.options.cm >= 1) {
      point.link.options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
      point.link.options.channel_source.ensemble_count = 4;
    }
  }
  return spec;
}

TEST(SweepEngine, TelemetryNeverChangesResultBytes) {
  const engine::ScenarioSpec scenario = tiny_ensemble_scenario();
  sim::BerStop stop;
  stop.min_errors = 8;
  stop.max_bits = 1500;
  stop.max_trials = 25;

  // Baseline: one worker, no telemetry.
  engine::SweepConfig plain;
  plain.seed = 0x0B5;
  plain.workers = 1;
  plain.stop = stop;
  engine::JsonSink plain_json("test_results/obs_plain.json");
  engine::CsvSink plain_csv("test_results/obs_plain.csv");
  (void)engine::SweepEngine(plain).run(scenario, {&plain_json, &plain_csv});

  // Full telemetry: eight workers, tracing and progress (to a scratch file).
  TraceRecorder trace;
  std::FILE* progress_out = std::fopen("test_results/obs_progress_sweep.txt", "w");
  ASSERT_NE(progress_out, nullptr);
  ProgressOptions progress_options;
  progress_options.out = progress_out;
  progress_options.interval_s = 0.01;
  engine::SweepResult traced_result;
  {
    ProgressMeter progress(progress_options);
    engine::SweepConfig traced = plain;
    traced.workers = 8;
    traced.trace = &trace;
    traced.progress = &progress;
    engine::JsonSink traced_json("test_results/obs_traced.json");
    engine::CsvSink traced_csv("test_results/obs_traced.csv");
    traced_result = engine::SweepEngine(traced).run(scenario, {&traced_json, &traced_csv});
  }
  std::fclose(progress_out);

  // The contract: byte-identical machine-readable results.
  const std::string plain_bytes = slurp("test_results/obs_plain.json");
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes, slurp("test_results/obs_traced.json"));
  EXPECT_EQ(slurp("test_results/obs_plain.csv"), slurp("test_results/obs_traced.csv"));

  // The trace saw all three instrumented subsystems.
  std::set<std::string> categories;
  for (const auto& log : trace.merged()) {
    for (const auto& event : log.events) categories.insert(event.category);
  }
  EXPECT_TRUE(categories.count("engine"));
  EXPECT_TRUE(categories.count("pool"));
  EXPECT_TRUE(categories.count("channel_cache"));

  // The counters saw the run: every pool task counted, ensemble resolved.
  std::uint64_t executed = 0;
  for (const PoolWorkerStats& s : traced_result.counters.pool) executed += s.executed;
  EXPECT_EQ(traced_result.counters.pool.size(), 8u);
  EXPECT_GT(executed, 0u);
  EXPECT_GT(traced_result.counters.cache_hits + traced_result.counters.cache_generated +
                traced_result.counters.cache_disk_loads,
            0u);
  EXPECT_GT(traced_result.counters.wall_s, 0.0);
  EXPECT_GT(traced_result.counters.peak_rss_mb, 0.0);  // the process is resident
}

TEST(SweepEngine, ProfilingNeverChangesResultBytes) {
  const engine::ScenarioSpec scenario = tiny_ensemble_scenario();
  sim::BerStop stop;
  stop.min_errors = 8;
  stop.max_bits = 1500;
  stop.max_trials = 25;

  // Baseline: one worker, no profiler.
  engine::SweepConfig plain;
  plain.seed = 0x0B5;
  plain.workers = 1;
  plain.stop = stop;
  engine::JsonSink plain_json("test_results/obs_prof_off.json");
  (void)engine::SweepEngine(plain).run(scenario, {&plain_json});

  // Profiled: eight workers, --profile equivalent.
  StageProfiler profiler;
  engine::SweepConfig profiled = plain;
  profiled.workers = 8;
  profiled.profile = &profiler;
  engine::SweepResult profiled_result;
  {
    engine::JsonSink profiled_json("test_results/obs_prof_on.json");
    profiled_result = engine::SweepEngine(profiled).run(scenario, {&profiled_json});
  }

  // The contract: the profiler is a pure observer.
  const std::string off_bytes = slurp("test_results/obs_prof_off.json");
  ASSERT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, slurp("test_results/obs_prof_on.json"));

  // The run-total stage table saw the instrumented pipeline.
  EXPECT_FALSE(profiled_result.stages.empty());
  EXPECT_GT(profiled_result.stages[Stage::kTxModulate].calls, 0u);
  EXPECT_GT(profiled_result.stages[Stage::kRxFrontend].calls, 0u);
  EXPECT_GT(profiled_result.stages[Stage::kRxFrontend].samples, 0u);
  EXPECT_GT(profiled_result.stages[Stage::kDemodDecide].calls, 0u);
  EXPECT_GT(profiled_result.stages[Stage::kFftExec].calls, 0u);
}

}  // namespace
}  // namespace uwb::obs
