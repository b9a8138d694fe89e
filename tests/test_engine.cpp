// Tests for the parallel Monte-Carlo sweep engine: the work-stealing pool,
// the deterministic ordered-commit BER measurement (1 worker == N workers,
// parallel == serial), scenario-registry expansion, and byte-identical
// JSON/CSV sinks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <latch>
#include <limits>
#include <sstream>
#include <stdexcept>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.h"
#include "engine/parallel_ber.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "engine/thread_pool.h"
#include "measure_trials.h"
#include "obs/trace.h"
#include "sim/scenario.h"

namespace uwb::engine {
namespace {

// ------------------------------------------------------------ thread pool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  // Nested submission exercises the worker-local push + stealing path:
  // one seed task fans out to 64 children from inside the pool.
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RepeatedRoundsAndNestedSubmitsAccountForEveryTask) {
  // Rounds of external submits whose tasks submit more, each drained by
  // wait_idle: a lost wakeup would hang a round, a lost task would break
  // the counts. The last pool is destroyed with every worker asleep.
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint64_t kOuter = 9;
  constexpr std::uint64_t kInner = 3;
  for (const std::size_t workers : {1u, 3u, 8u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::atomic<std::uint64_t> ran{0};
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      for (std::uint64_t i = 0; i < kOuter; ++i) {
        pool.submit([&] {
          ran.fetch_add(1, std::memory_order_relaxed);
          for (std::uint64_t k = 0; k < kInner; ++k) {
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
      pool.wait_idle();
      ASSERT_EQ(ran.load(), round * kOuter * (1 + kInner));
    }
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    for (const obs::PoolWorkerStats& s : pool.worker_stats()) {
      executed += s.executed;
      stolen += s.stolen;
    }
    EXPECT_EQ(executed, kRounds * kOuter * (1 + kInner));
    EXPECT_LE(stolen, executed);
    if (workers == 1) {
      EXPECT_EQ(stolen, 0u);
    }
  }
}

#if defined(__linux__)
/// The calling thread's CPU mask.
cpu_set_t thread_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  return set;
}

/// Runs one task per worker, all held on a latch so each runs on its own
/// worker, and returns the CPU mask each task's thread had.
std::vector<cpu_set_t> worker_masks(std::size_t workers) {
  ThreadPool pool(workers);
  std::vector<cpu_set_t> masks(workers);
  std::latch all_running(static_cast<std::ptrdiff_t>(workers));
  for (std::size_t i = 0; i < workers; ++i) {
    pool.submit([&masks, &all_running, i] {
      masks[i] = thread_mask();
      all_running.arrive_and_wait();
    });
  }
  pool.wait_idle();
  return masks;
}

TEST(ThreadPool, AsManyWorkersAsCpusEachOwnOneCpu) {
  const cpu_set_t process = thread_mask();
  const auto n = static_cast<std::size_t>(CPU_COUNT(&process));
  cpu_set_t covered;
  CPU_ZERO(&covered);
  for (const cpu_set_t& mask : worker_masks(n)) {
    ASSERT_EQ(CPU_COUNT(&mask), 1);
    cpu_set_t overlap;
    CPU_AND(&overlap, &covered, &mask);
    EXPECT_EQ(CPU_COUNT(&overlap), 0) << "two workers share a CPU";
    CPU_OR(&covered, &covered, &mask);
  }
  EXPECT_TRUE(CPU_EQUAL(&covered, &process));
}

TEST(ThreadPool, FewerWorkersThanCpusKeepTheProcessMask) {
  const cpu_set_t process = thread_mask();
  const auto n = static_cast<std::size_t>(CPU_COUNT(&process));
  if (n < 2) GTEST_SKIP() << "needs at least two allowed CPUs";
  for (const cpu_set_t& mask : worker_masks(n - 1)) {
    EXPECT_TRUE(CPU_EQUAL(&mask, &process));
  }
}
#endif

// ------------------------------------------------- deterministic parallel ----

/// A stochastic synthetic trial: a pure function of its per-trial Rng,
/// with variable bit counts so the bit/error budgets are both exercised.
sim::TrialOutcome synthetic_trial(std::size_t /*index*/, Rng& rng) {
  const std::size_t bits = 50 + static_cast<std::size_t>(rng.uniform_int(0, 50));
  std::size_t errors = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    if (rng.uniform() < 0.02) ++errors;
  }
  sim::TrialOutcome out;
  out.bits = bits;
  out.errors = errors;
  return out;
}

void expect_points_equal(const sim::BerPoint& a, const sim::BerPoint& b) {
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.trials, b.trials);
  // Bit-identical, not approximately equal: same committed prefix, same
  // accumulation order, same arithmetic.
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.ci95, b.ci95);
}

TEST(ParallelBer, MatchesSerialExactly) {
  sim::BerStop stop;
  stop.min_errors = 40;
  stop.max_bits = 100000;
  stop.max_trials = 100000;
  const Rng root(0xDECAF);

  const sim::BerPoint serial = test::measure_trials(synthetic_trial, stop, root).ber;
  ASSERT_GT(serial.trials, 0u);

  const sim::BerPoint parallel = test::measure_trials(synthetic_trial, stop, root, 4).ber;
  expect_points_equal(serial, parallel);
}

TEST(ParallelBer, WorkerCountDoesNotChangeTheAnswer) {
  sim::BerStop stop;
  stop.min_errors = 60;
  stop.max_bits = 100000;
  stop.max_trials = 100000;
  const Rng root(0xB0B);

  sim::BerPoint results[3];
  const std::size_t worker_counts[] = {1, 2, 7};
  for (int i = 0; i < 3; ++i) {
    results[i] = test::measure_trials(synthetic_trial, stop, root, worker_counts[i]).ber;
  }
  expect_points_equal(results[0], results[1]);
  expect_points_equal(results[0], results[2]);
}

TEST(ParallelBer, MaxTrialsHardStopWithZeroBitTrials) {
  sim::BerStop stop;
  stop.min_errors = 10;
  stop.max_bits = 1000;
  stop.max_trials = 9;
  const auto empty_trial = [](std::size_t, Rng&) { return sim::TrialOutcome{}; };
  const sim::BerPoint point = test::measure_trials(empty_trial, stop, Rng(2), 3).ber;
  EXPECT_EQ(point.trials, 9u);
  EXPECT_EQ(point.bits, 0u);
  EXPECT_DOUBLE_EQ(point.ber, 0.0);
  EXPECT_FALSE(std::isnan(point.ci95));
}

TEST(ParallelBer, DegenerateBudgetsRunNothing) {
  sim::BerStop stop;
  stop.max_trials = 0;
  std::atomic<int> calls{0};
  const auto counted_trial = [&calls](std::size_t, Rng&) {
    ++calls;
    return sim::TrialOutcome{1, 0, {}};
  };
  const sim::BerPoint point = test::measure_trials(counted_trial, stop, Rng(1), 2).ber;
  EXPECT_EQ(point.trials, 0u);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelBer, TrialExceptionPropagatesToTheCaller) {
  // A throwing trial must not terminate the process from a pool thread:
  // the point stops and the first exception resurfaces on the caller.
  sim::BerStop stop;
  stop.min_errors = 1000;
  stop.max_trials = 1000;
  const auto trial = [](std::size_t index, Rng& rng) {
    if (index == 37) throw std::runtime_error("trial 37 failed");
    return synthetic_trial(index, rng);
  };
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    EXPECT_THROW((void)test::measure_trials(trial, stop, Rng(3), workers), std::runtime_error);
  }
}

// ------------------------------------------------------- resumable points ----

/// synthetic_trial as a TrialFactory; trial \p throw_at (if any) throws.
TrialFactory synthetic_factory(std::size_t throw_at = std::numeric_limits<std::size_t>::max()) {
  return [throw_at]() -> TrialFn {
    return [throw_at](std::size_t index, Rng& rng) {
      if (index == throw_at) throw std::runtime_error("trial failed");
      return synthetic_trial(index, rng);
    };
  };
}

/// A trial-budgeted rule: the error and bit budgets never fire first.
sim::BerStop trial_budget(std::size_t max_trials) {
  sim::BerStop stop;
  stop.min_errors = 1'000'000;
  stop.max_bits = 1'000'000'000;
  stop.max_trials = max_trials;
  return stop;
}

void expect_state_unchanged(const PointState& state, const PointState& before) {
  EXPECT_EQ(state.committed, before.committed);
  EXPECT_EQ(state.executed, before.executed);
  EXPECT_EQ(state.acc.finish(state.committed), before.acc.finish(before.committed));
}

TEST(PointState, StricterResumeRuleThrowsAndKeepsTheState) {
  // A stricter rule could have stopped inside the committed prefix, so a
  // resume under it cannot equal a from-scratch run: it must throw.
  ThreadPool pool(2);
  const sim::BerStop rule = trial_budget(20);
  PointState state;
  (void)measure_point(synthetic_factory(), rule, Rng(7), pool, state);
  ASSERT_EQ(state.committed, 20u);
  const PointState before = state;

  std::vector<sim::BerStop> stricter(5, rule);
  stricter[0].max_trials = 19;
  stricter[1].min_errors = rule.min_errors - 1;
  stricter[2].max_bits = rule.max_bits - 1;
  stricter[3].metric = "acquired";
  stricter[4].target_rel_ci_width = 0.5;
  for (std::size_t i = 0; i < stricter.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_THROW((void)measure_point(synthetic_factory(), stricter[i], Rng(7), pool, state),
                 InvalidArgument);
    expect_state_unchanged(state, before);
  }

  // The same rule resumes as a no-op; an empty state takes any rule.
  EXPECT_EQ(measure_point(synthetic_factory(), rule, Rng(7), pool, state).ber.trials, 20u);
  expect_state_unchanged(state, before);
  PointState fresh;
  EXPECT_EQ(measure_point(synthetic_factory(), stricter[0], Rng(7), pool, fresh).ber.trials,
            19u);

  // A trial cap below the old one but above the committed prefix cannot
  // stop inside it: a point whose error budget fired resumes under it.
  sim::BerStop errors_first = trial_budget(1000);
  errors_first.min_errors = 5;
  PointState stopped;
  const std::size_t at =
      measure_point(synthetic_factory(), errors_first, Rng(7), pool, stopped).ber.trials;
  ASSERT_LT(at + 10, errors_first.max_trials);
  const sim::BerStop extend = trial_budget(at + 10);
  PointState scratch;
  EXPECT_EQ(measure_point(synthetic_factory(), extend, Rng(7), pool, stopped),
            measure_point(synthetic_factory(), extend, Rng(7), pool, scratch));
}

TEST(PointState, FailedOrCancelledResumeKeepsTheState) {
  ThreadPool pool(4);
  const Rng root(0x5A7E);
  PointState state;
  (void)measure_point(synthetic_factory(), trial_budget(10), root, pool, state);
  const PointState before = state;

  EXPECT_THROW((void)measure_point(synthetic_factory(15), trial_budget(50), root, pool, state),
               std::runtime_error);
  expect_state_unchanged(state, before);

  const std::atomic<bool> cancel{true};
  PointHooks hooks;
  hooks.cancel = &cancel;
  (void)measure_point(synthetic_factory(), trial_budget(50), root, pool, state, hooks);
  expect_state_unchanged(state, before);

  // The kept state still resumes to the from-scratch answer.
  PointState scratch;
  const sim::MeasuredPoint full =
      measure_point(synthetic_factory(), trial_budget(50), root, pool, scratch);
  EXPECT_EQ(measure_point(synthetic_factory(), trial_budget(50), root, pool, state), full);
  EXPECT_EQ(state.committed, 50u);
  EXPECT_GE(state.executed, 50u);
}

// ---------------------------------------------------------------- registry ----

TEST(ScenarioRegistry, BuilderExpandsGridRowMajor) {
  // A 2 (channel) x 3 (Eb/N0) grid must expand to 6 points, channel as the
  // outer loop, with tags and configs resolved per point.
  Gen2ScenarioBuilder builder("grid", sim::gen2_fast());
  builder.channels({0, 3}).ebn0_grid({8.0, 12.0, 16.0});
  const ScenarioSpec spec = builder.build();

  ASSERT_EQ(spec.points.size(), 6u);
  const char* expected_channels[] = {"AWGN", "AWGN", "AWGN", "CM3", "CM3", "CM3"};
  const char* expected_ebn0[] = {"8", "12", "16", "8", "12", "16"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(spec.points[i].tag("channel"), expected_channels[i]);
    EXPECT_EQ(spec.points[i].tag("ebn0_db"), expected_ebn0[i]);
    EXPECT_EQ(spec.points[i].link.options.cm, i < 3 ? 0 : 3);
  }
  EXPECT_EQ(spec.points[4].link.options.ebn0_db, 12.0);
  EXPECT_EQ(spec.points[4].label, "CM3 | 12");
}

TEST(ScenarioRegistry, VariantAxisMutatesConfig) {
  Gen2ScenarioBuilder builder("backend", sim::gen2_fast());
  builder.axis("backend", {{"full", [](txrx::Gen2Config&, txrx::TrialOptions&) {}},
                           {"mf_only", [](txrx::Gen2Config& c, txrx::TrialOptions&) {
                              c.use_rake = false;
                              c.use_mlse = false;
                            }}});
  const ScenarioSpec spec = builder.build();
  ASSERT_EQ(spec.points.size(), 2u);
  EXPECT_TRUE(spec.points[0].link.gen2().use_rake);
  EXPECT_FALSE(spec.points[1].link.gen2().use_rake);
  EXPECT_FALSE(spec.points[1].link.gen2().use_mlse);
}

TEST(ScenarioRegistry, GlobalHasBuiltinsAndRejectsUnknown) {
  auto& registry = ScenarioRegistry::global();
  const std::vector<std::string> names = registry.names();
  for (const char* name : {"gen2_cm_grid", "gen1_waterfall", "gen2_backend_ladder"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end()) << name;
  }

  const ScenarioSpec grid = registry.make("gen2_cm_grid");
  EXPECT_EQ(grid.points.size(), 5u * 3u * 2u);  // CM0-4 x 3 Eb/N0 x 2 back ends

  EXPECT_THROW((void)registry.make("no_such_scenario"), InvalidArgument);
}

TEST(ScenarioRegistry, EmptyAxisRejected) {
  Gen2ScenarioBuilder builder("bad", sim::gen2_fast());
  EXPECT_THROW(builder.axis("empty", {}), InvalidArgument);
}

TEST(ScenarioRegistry, ThreeAxisExpansionIsRowMajorInDeclarationOrder) {
  // First declared axis outermost, last innermost: a 2x2x2 grid must
  // enumerate as an odometer with the "notch" digit spinning fastest.
  Gen2ScenarioBuilder builder("rowmajor", sim::gen2_fast());
  builder.channels({0, 3})
      .ebn0_grid({8.0, 12.0})
      .axis("notch", {{"off", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                         o.auto_notch = false;
                       }},
                      {"auto", [](txrx::Gen2Config&, txrx::TrialOptions& o) {
                         o.auto_notch = true;
                       }}});
  const ScenarioSpec spec = builder.build();
  ASSERT_EQ(spec.points.size(), 8u);
  const char* expected[][3] = {
      {"AWGN", "8", "off"},  {"AWGN", "8", "auto"},  {"AWGN", "12", "off"},
      {"AWGN", "12", "auto"}, {"CM3", "8", "off"},   {"CM3", "8", "auto"},
      {"CM3", "12", "off"},  {"CM3", "12", "auto"},
  };
  for (std::size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(spec.points[i].tags[0], (std::pair<std::string, std::string>{
                                          "channel", expected[i][0]}));
    EXPECT_EQ(spec.points[i].tags[1], (std::pair<std::string, std::string>{
                                          "ebn0_db", expected[i][1]}));
    EXPECT_EQ(spec.points[i].tags[2], (std::pair<std::string, std::string>{
                                          "notch", expected[i][2]}));
    EXPECT_EQ(spec.points[i].link.options.auto_notch,
              std::string(expected[i][2]) == "auto");
  }
}

TEST(ScenarioRegistry, TagsRoundTripThroughPointSpecTag) {
  Gen2ScenarioBuilder builder("tags", sim::gen2_fast());
  builder.channels({2}).ebn0_grid({10.0});
  const ScenarioSpec spec = builder.build();
  ASSERT_EQ(spec.points.size(), 1u);
  const PointSpec& point = spec.points[0];
  // Every declared (axis, value) pair is recoverable via tag(), in order.
  for (const auto& [key, value] : point.tags) {
    EXPECT_EQ(point.tag(key), value);
  }
  EXPECT_EQ(point.tag("channel"), "CM2");
  EXPECT_EQ(point.tag("ebn0_db"), "10");
  EXPECT_EQ(point.tag("not_an_axis"), "");
  EXPECT_EQ(point.label, "CM2 | 10");
}

TEST(ScenarioRegistry, RestrictScenarioFiltersAndFailsLoudly) {
  ScenarioSpec grid = ScenarioRegistry::global().make("gen2_cm_grid");
  restrict_scenario(grid, "channel", "CM1,CM3");
  EXPECT_EQ(grid.points.size(), 2u * 3u * 2u);
  restrict_scenario(grid, "ebn0_db", "12");
  EXPECT_EQ(grid.points.size(), 2u * 2u);
  for (const auto& point : grid.points) {
    EXPECT_TRUE(point.tag("channel") == "CM1" || point.tag("channel") == "CM3");
    EXPECT_EQ(point.tag("ebn0_db"), "12");
  }
  // Unknown axis key: loud failure, not a silently unfiltered sweep.
  EXPECT_THROW(restrict_scenario(grid, "chanel", "CM1"), InvalidArgument);
  // Known axis, value matching no point: equally loud.
  EXPECT_THROW(restrict_scenario(grid, "channel", "CM9"), InvalidArgument);
}

// ------------------------------------------------------------ sweep engine ----

/// A tiny real-link scenario, cheap enough for a unit test: gen-2 fast
/// config on AWGN and CM1, small payloads, small budgets.
ScenarioSpec tiny_scenario() {
  txrx::Gen2Config config = sim::gen2_fast();
  txrx::TrialOptions options;
  options.payload_bits = 64;
  options.genie_timing = true;
  Gen2ScenarioBuilder builder("tiny", config, options);
  builder.channels({0, 1}).ebn0_grid({6.0});
  return builder.build();
}

sim::BerStop tiny_stop() {
  sim::BerStop stop;
  stop.min_errors = 8;
  stop.max_bits = 1500;
  stop.max_trials = 25;
  return stop;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SweepEngine, OneWorkerAndManyWorkersAreByteIdentical) {
  const ScenarioSpec scenario = tiny_scenario();

  SweepConfig config1;
  config1.seed = 0x5EED;
  config1.workers = 1;
  config1.stop = tiny_stop();
  SweepConfig config4 = config1;
  config4.workers = 4;

  JsonSink json1("test_results/sweep_w1.json");
  JsonSink json4("test_results/sweep_w4.json");
  CsvSink csv1("test_results/sweep_w1.csv");
  CsvSink csv4("test_results/sweep_w4.csv");

  const SweepResult r1 = SweepEngine(config1).run(scenario, {&json1, &csv1});
  const SweepResult r4 = SweepEngine(config4).run(scenario, {&json4, &csv4});

  ASSERT_EQ(r1.records.size(), scenario.points.size());
  ASSERT_EQ(r4.records.size(), scenario.points.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    SCOPED_TRACE(r1.records[i].spec.label);
    expect_points_equal(r1.records[i].ber, r4.records[i].ber);
    EXPECT_GT(r1.records[i].ber.bits, 0u);  // the link actually ran
  }

  const std::string j1 = slurp("test_results/sweep_w1.json");
  const std::string j4 = slurp("test_results/sweep_w4.json");
  ASSERT_FALSE(j1.empty());
  EXPECT_EQ(j1, j4);  // byte-identical machine-readable output
  EXPECT_EQ(slurp("test_results/sweep_w1.csv"), slurp("test_results/sweep_w4.csv"));

  // Sanity on the JSON itself.
  EXPECT_NE(j1.find("\"scenario\": \"tiny\""), std::string::npos);
  EXPECT_NE(j1.find("\"tags\""), std::string::npos);
  EXPECT_NE(j1.find("\"ber\""), std::string::npos);
}

/// FNV-1a digest of a sweep's serialized bytes -- the pinned-seed
/// fingerprint the determinism tests compare across configurations.
uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A pinned-seed slice of the registry's gen2_cm_grid: the AWGN and CM3
/// "full"-backend points (CM3 is where the FFT fast path does the most
/// work: long CIRs, long preamble correlations).
ScenarioSpec cm_grid_slice() {
  ScenarioSpec grid = ScenarioRegistry::global().make("gen2_cm_grid");
  ScenarioSpec slice;
  slice.name = grid.name;
  slice.description = grid.description;
  for (const auto& point : grid.points) {
    const std::string channel = point.tag("channel");
    if ((channel == "AWGN" || channel == "CM3") && point.tag("backend") == "full" &&
        point.tag("ebn0_db") == "12") {
      slice.points.push_back(point);
    }
  }
  return slice;
}

sim::BerStop cm_grid_slice_stop() {
  sim::BerStop stop;
  stop.min_errors = 4;
  stop.max_bits = 1200;
  stop.max_trials = 4;
  return stop;
}

TEST(SweepEngine, FastPathDigestIndependentOfWorkerCount) {
  // Pinned-seed digest of the fast-path sweep for any worker count: the
  // per-thread FFT workspaces must not leak state between trials or
  // workers.
  const ScenarioSpec slice = cm_grid_slice();
  uint64_t digests[3] = {};
  const std::size_t worker_counts[] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    SweepConfig config;
    config.seed = 0xFA57'0002;
    config.workers = worker_counts[i];
    config.stop = cm_grid_slice_stop();
    const std::string path =
        "test_results/cm_grid_w" + std::to_string(worker_counts[i]) + ".json";
    JsonSink json(path);
    (void)SweepEngine(config).run(slice, {&json});
    digests[i] = fnv1a(slurp(path));
    EXPECT_NE(digests[i], fnv1a(""));  // file exists and is non-empty
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(SweepEngine, AdaptiveCountersCoverBasePassAndTopUps) {
  // run_adaptive's counters describe the whole run: the base pass and every
  // top-up run on one pool, and wall time spans both.
  const ScenarioSpec slice = cm_grid_slice();
  SweepConfig config;
  config.seed = 0xADA7;
  config.workers = 2;
  config.stop.min_errors = std::numeric_limits<std::size_t>::max();
  config.stop.max_bits = std::numeric_limits<std::size_t>::max();
  config.stop.max_trials = 4;

  const SweepResult base = SweepEngine(config).run(slice, {});
  const SweepResult adaptive = SweepEngine(config).run_adaptive(slice, 12, {});
  ASSERT_EQ(adaptive.records.size(), slice.points.size());

  std::size_t base_trials = 0;
  for (const PointRecord& rec : base.records) base_trials += rec.ber.trials;
  std::size_t adaptive_trials = 0;
  double elapsed_s = 0.0;
  for (const PointRecord& rec : adaptive.records) {
    adaptive_trials += rec.ber.trials;
    elapsed_s += rec.elapsed_s;
  }
  ASSERT_GT(adaptive_trials, base_trials) << "no top-up ran";
  EXPECT_GE(adaptive.counters.wall_s, elapsed_s);

  // Every point measurement submits one task per worker: the base pass
  // alone executes workers x points, each top-up adds another workers.
  ASSERT_EQ(adaptive.counters.pool.size(), config.workers);
  EXPECT_EQ(base.counters.pool_executed(), config.workers * slice.points.size());
  EXPECT_GE(adaptive.counters.pool_executed(),
            base.counters.pool_executed() + config.workers);
  EXPECT_EQ(adaptive.counters.pool_executed() % config.workers, 0u);
}

/// The adaptive pin's slice: gen2_cm_grid_deep's plain CM1 points at 6, 10
/// and 12 dB over the shared 32-realization ensemble, base pass under a
/// 0.5 relative CI-width stop capped at 8 trials, then a 200-trial budget.
/// The 12 dB point is topped up twice (to 72, then to 140 trials, where its
/// CI target fires) and then saturates; the 10 dB point grows once, to its
/// CI stop, and then saturates; the 6 dB point met its target in the base
/// pass and saturates when picked.
ScenarioSpec adaptive_pin_slice() {
  ScenarioSpec slice = ScenarioRegistry::global().make("gen2_cm_grid_deep");
  restrict_scenario(slice, "channel", "CM1");
  restrict_scenario(slice, "ebn0_db", "6,10,12");
  restrict_scenario(slice, "sampling", "plain");
  return slice;
}

SweepConfig adaptive_pin_config(std::size_t workers) {
  SweepConfig config;  // the engine's default sweep seed
  config.workers = workers;
  config.stop.min_errors = 40;
  config.stop.max_bits = 120000;
  config.stop.max_trials = 8;
  config.stop.target_rel_ci_width = 0.5;
  return config;
}

TEST(SweepEngine, AdaptiveDocumentBytesArePinned) {
  // run_adaptive's result document is a pure function of (scenario, seed,
  // stop, budget), identical at any worker count. The digest was recorded
  // on the engine that re-measured every top-up from trial 0; resuming a
  // point's state must commit exactly the same trials.
  constexpr uint64_t kPinned = 0x79e6b8257f46b2d0ULL;
  const ScenarioSpec slice = adaptive_pin_slice();
  ASSERT_EQ(slice.points.size(), 3u);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string path = "test_results/adaptive_pin_w" + std::to_string(workers) + ".json";
    JsonSink json(path);
    const SweepResult result =
        SweepEngine(adaptive_pin_config(workers)).run_adaptive(slice, 200, {&json});
    ASSERT_EQ(result.records.size(), 3u);
    EXPECT_EQ(result.records[0].ber.trials, 5u);
    EXPECT_EQ(result.records[1].ber.trials, 12u);
    EXPECT_EQ(result.records[2].ber.trials, 140u);
    EXPECT_EQ(fnv1a(slurp(path)), kPinned) << std::hex << fnv1a(slurp(path));
  }
}

TEST(SweepEngine, TrialCountersAndTopUpSpansAccountForEveryTrial) {
  // A fixed trial budget claims nothing past the cap, so every executed
  // trial commits.
  SweepConfig fixed;
  fixed.workers = 4;
  fixed.stop = trial_budget(6);
  const SweepResult run = SweepEngine(fixed).run(tiny_scenario(), {});
  std::size_t run_trials = 0;
  for (const PointRecord& rec : run.records) run_trials += rec.ber.trials;
  EXPECT_EQ(run.counters.trials_committed, run_trials);
  EXPECT_EQ(run.counters.trials_executed, run_trials);

  // Adaptive: every top-up span says where it resumed and how far it grew,
  // and one worker claiming one trial at a time runs each trial once, base
  // pass and top-ups together.
  obs::TraceRecorder trace;
  SweepConfig config = adaptive_pin_config(1);
  config.trace = &trace;
  const SweepResult adaptive = SweepEngine(config).run_adaptive(adaptive_pin_slice(), 200, {});
  std::size_t adaptive_trials = 0;
  for (const PointRecord& rec : adaptive.records) adaptive_trials += rec.ber.trials;
  EXPECT_EQ(adaptive.counters.trials_committed, adaptive_trials);
  EXPECT_EQ(adaptive.counters.trials_executed, adaptive_trials);

  std::vector<std::pair<std::string, std::string>> topups;  // resumed_at, grown
  for (const auto& log : trace.merged()) {
    for (const obs::TraceEvent& event : log.events) {
      if (event.name != "topup CM1 | 12 | plain") continue;
      ASSERT_EQ(event.args.size(), 2u);
      EXPECT_EQ(event.args[0].key, "resumed_at");
      EXPECT_EQ(event.args[1].key, "grown");
      topups.emplace_back(event.args[0].value, event.args[1].value);
    }
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"8", "64"}, {"72", "68"}, {"140", "0"}};
  EXPECT_EQ(topups, expected);
}

TEST(SweepEngine, AdaptiveTopUpsExtendPointsStoppedBelowTheirTrialCap) {
  // tiny_stop's error and bit budgets fire well before its trial cap, so
  // every top-up lowers the cap. Each topped-up point must equal a
  // from-scratch run under the top-up rule (error and bit budgets lifted,
  // the cap at the point's final count).
  const ScenarioSpec scenario = tiny_scenario();
  SweepConfig config;
  config.seed = 0x70B;
  config.workers = 2;
  config.stop = tiny_stop();
  config.stop.max_trials = 1000;
  const SweepResult base = SweepEngine(config).run(scenario, {});
  const SweepResult adaptive = SweepEngine(config).run_adaptive(scenario, 100, {});
  ASSERT_EQ(adaptive.records.size(), base.records.size());
  std::size_t topped_up = 0;
  for (std::size_t p = 0; p < adaptive.records.size(); ++p) {
    SCOPED_TRACE(adaptive.records[p].spec.label);
    ASSERT_LT(base.records[p].ber.trials, config.stop.max_trials);
    if (adaptive.records[p].ber.trials == base.records[p].ber.trials) continue;
    ++topped_up;
    SweepConfig scratch = config;
    scratch.stop = trial_budget(adaptive.records[p].ber.trials);
    const SweepResult replay = SweepEngine(scratch).run(scenario, {});
    EXPECT_EQ(adaptive.records[p].ber, replay.records[p].ber);
    EXPECT_EQ(adaptive.records[p].metrics, replay.records[p].metrics);
  }
  EXPECT_GT(topped_up, 0u);
}

/// A fresh-draw gen-2 point's TrialFactory, as SweepEngine builds it: each
/// worker runs its own link, built from \p link_seed, through txrx::run_trial.
TrialFactory packet_factory(const PointSpec& spec, uint64_t link_seed) {
  return [&spec, link_seed]() -> TrialFn {
    std::shared_ptr<txrx::Link> link = txrx::make_link(spec.link, link_seed);
    return [&spec, link](std::size_t index, Rng& rng) {
      return txrx::run_trial(*link, spec.link.options, index, nullptr, rng);
    };
  };
}

/// One measured point serialized as a result-document record.
std::string record_bytes(const PointSpec& spec, const sim::MeasuredPoint& point) {
  PointRecord record;
  record.spec = spec;
  record.ber = point.ber;
  record.metrics = point.metrics;
  const std::string path = "test_results/resume_record.json";
  JsonSink json(path);
  json.point(record);
  json.end(SweepInfo{});
  return slurp(path);
}

TEST(PointState, ResumedPointMatchesTheFromScratchRun) {
  // A point measured to k trials and resumed under the full rule commits
  // the from-scratch run's trials: the same MeasuredPoint and record bytes
  // for k = 0, 1, a mid prefix and the trial where the rule fires, at any
  // worker count. Three rules: a plain CI-width stop, the same on an
  // importance-sampled (weighted) point, and an error budget
  // counted on a success-flag metric.
  ScenarioSpec deep = ScenarioRegistry::global().make("gen2_cm_grid_deep");
  restrict_scenario(deep, "channel", "AWGN");
  restrict_scenario(deep, "ebn0_db", "6");
  ASSERT_EQ(deep.points.size(), 2u);
  struct Case {
    const char* name;
    PointSpec spec;
    sim::BerStop stop;
  };
  std::vector<Case> cases(3);
  cases[0] = {"plain", deep.points[0], trial_budget(24)};
  cases[0].stop.target_rel_ci_width = 0.35;  // fires at trial 19
  cases[1] = {"importance-sampled", deep.points[1], trial_budget(40)};
  cases[1].stop.target_rel_ci_width = 1.2;  // fires at trial 36
  cases[2] = {"stop metric", deep.points[0], trial_budget(24)};
  cases[2].stop.metric = txrx::metric_names::kInterfererDetected;
  cases[2].stop.min_errors = 20;  // fires at trial 20

  const Rng root(6);
  constexpr std::size_t kMidPrefix = 16;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const TrialFactory factory = packet_factory(c.spec, 0x11C);
    ThreadPool one(1);
    PointState reference_state;
    const sim::MeasuredPoint reference =
        measure_point(factory, c.stop, root, one, reference_state);
    const std::string reference_bytes = record_bytes(c.spec, reference);
    const std::size_t fired_at = reference.ber.trials;
    ASSERT_GT(fired_at, kMidPrefix);
    ASSERT_LT(fired_at, c.stop.max_trials) << "the rule must fire before the trial cap";
    EXPECT_EQ(reference.ber.weighted, c.spec.link.options.sampling.active());

    for (const std::size_t workers : {1u, 4u}) {
      ThreadPool pool(workers);
      for (const std::size_t k : {std::size_t{0}, std::size_t{1}, kMidPrefix, fired_at}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) + " k=" + std::to_string(k));
        sim::BerStop prefix_rule = c.stop;
        prefix_rule.max_trials = k;
        PointState state;
        (void)measure_point(factory, prefix_rule, root, pool, state);
        ASSERT_EQ(state.committed, k);
        const sim::MeasuredPoint resumed = measure_point(factory, c.stop, root, pool, state);
        EXPECT_EQ(resumed, reference);
        EXPECT_EQ(record_bytes(c.spec, resumed), reference_bytes);
        EXPECT_EQ(state.committed, fired_at);
        // One worker runs each trial once: the resume ran only the trials
        // past the prefix.
        if (workers == 1) {
          EXPECT_EQ(state.executed, fired_at);
        }
      }
    }
  }
}

TEST(SweepEngine, ShardsPartitionThePlanAndMatchTheUnshardedRun) {
  // shard 0/2 and 1/2 must cover exactly the unsharded point set, once
  // each, and every shard point must be byte-identical to its unsharded
  // counterpart (global-index seeding).
  const ScenarioSpec scenario = tiny_scenario();  // 2 points

  SweepConfig base;
  base.seed = 0x51AD;
  base.workers = 2;
  base.stop = tiny_stop();

  const SweepResult full = SweepEngine(base).run(scenario);
  ASSERT_EQ(full.records.size(), 2u);

  std::vector<SweepResult> shards;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    SweepConfig config = base;
    config.shard_index = shard;
    config.shard_count = 2;
    shards.push_back(SweepEngine(config).run(scenario));
    ASSERT_EQ(shards.back().records.size(), 1u);
    EXPECT_EQ(shards.back().records[0].index, shard);  // 0/2 -> point 0, 1/2 -> 1
  }
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    SCOPED_TRACE(full.records[i].spec.label);
    EXPECT_EQ(shards[i].records[0].index, full.records[i].index);
    expect_points_equal(shards[i].records[0].ber, full.records[i].ber);
  }
}

TEST(SweepEngine, InvalidPointFailsBeforeAnyTrialRuns) {
  // A plan whose *last* point is invalid must be rejected up front -- an
  // exception mid-sweep would discard every completed point.
  ScenarioSpec scenario = tiny_scenario();
  PointSpec bad;
  bad.label = "gen1-with-interferer";
  bad.link = txrx::LinkSpec{sim::gen1_fast(), txrx::default_options(txrx::Generation::kGen1)};
  bad.link.options.interferer = true;
  scenario.points.push_back(bad);

  SweepConfig config;
  config.stop = tiny_stop();
  JsonSink json("test_results/never_written.json");
  try {
    (void)SweepEngine(config).run(scenario, {&json});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("gen1-with-interferer"), std::string::npos);
  }
}

TEST(SweepEngine, RejectsBadShardConfig) {
  SweepConfig config;
  config.shard_count = 0;
  EXPECT_THROW(SweepEngine{config}, InvalidArgument);
  config.shard_count = 2;
  config.shard_index = 2;
  EXPECT_THROW(SweepEngine{config}, InvalidArgument);
}

TEST(SweepEngine, RejectsWorkerCountsPastTheBound) {
  // Rejected in the constructor, before any pool thread starts.
  SweepConfig config;
  config.workers = kMaxWorkers + 1;
  EXPECT_THROW(SweepEngine{config}, InvalidArgument);
}

// ------------------------------------------------------- metric pipeline ----

TEST(MetricStats, VarianceMatchesHandComputedFixture) {
  // Hand-computed: values {2, 4, 4, 4, 5, 5, 7, 9} -> mean 5, population
  // variance 4, sample variance 32/7.
  sim::MetricStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count, 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 32.0 / 7.0);

  // Degenerate counts: no observations and one observation both report 0.
  sim::MetricStats empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  sim::MetricStats one;
  one.add(3.5);
  EXPECT_DOUBLE_EQ(one.mean(), 3.5);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);

  // merge() == adding the same observations to one accumulator.
  sim::MetricStats a, b;
  for (double v : {2.0, 4.0, 4.0, 4.0}) a.add(v);
  for (double v : {5.0, 5.0, 7.0, 9.0}) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count, stats.count);
  EXPECT_DOUBLE_EQ(a.mean(), stats.mean());
}

/// A synthetic metric-emitting trial: every trial emits "flag" (success on
/// ~70% of trials) and "value"; only successful trials emit "latency" --
/// the conditional-emission shape of the gen-1 sync-time metric.
sim::TrialOutcome metric_trial(std::size_t /*index*/, Rng& rng) {
  sim::TrialOutcome out;
  out.bits = 10;
  const bool ok = rng.uniform() < 0.7;
  out.errors = ok ? 0 : 2;
  out.metrics.emplace_back("flag", ok ? 1.0 : 0.0);
  out.metrics.emplace_back("value", rng.uniform());
  if (ok) out.metrics.emplace_back("latency", 1.0 + rng.uniform());
  return out;
}

TEST(MetricAccumulator, SerialReductionMatchesDirectComputation) {
  sim::BerStop stop;
  stop.min_errors = 1000;
  stop.max_bits = 200;  // exactly 20 trials
  const Rng root(0xACC);

  // Reference: replay the same forked trial stream by hand.
  std::size_t flags = 0, latencies = 0;
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    Rng rng = root.fork(i);
    const sim::TrialOutcome out = metric_trial(i, rng);
    for (const auto& [name, value] : out.metrics) {
      if (name == "flag" && value != 0.0) ++flags;
      if (name == "latency") {
        ++latencies;
        latency_sum += value;
      }
    }
  }

  const sim::MeasuredPoint point = test::measure_trials(metric_trial, stop, root);
  EXPECT_EQ(point.ber.trials, 20u);
  const sim::MetricStats* flag = point.metrics.find("flag");
  const sim::MetricStats* latency = point.metrics.find("latency");
  const sim::MetricStats* value = point.metrics.find("value");
  ASSERT_NE(flag, nullptr);
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(flag->count, 20u);
  EXPECT_DOUBLE_EQ(flag->mean(), static_cast<double>(flags) / 20.0);
  // Conditional emission: latency averages only the successful trials.
  EXPECT_EQ(latency->count, latencies);
  EXPECT_LT(latency->count, 20u);
  EXPECT_DOUBLE_EQ(latency->sum, latency_sum);
  EXPECT_EQ(value->count, 20u);
  EXPECT_EQ(point.metrics.find("no_such_metric"), nullptr);
  // Order: first-appearance order of emission.
  ASSERT_EQ(point.metrics.entries().size(), 3u);
  EXPECT_EQ(point.metrics.entries()[0].first, "flag");
  EXPECT_EQ(point.metrics.entries()[1].first, "value");
  EXPECT_EQ(point.metrics.entries()[2].first, "latency");
}

TEST(MetricAccumulator, ParallelMetricsMatchSerialExactly) {
  sim::BerStop stop;
  stop.min_errors = 40;
  stop.max_bits = 5000;
  const Rng root(0xFACE);
  const sim::MeasuredPoint serial = test::measure_trials(metric_trial, stop, root);
  ASSERT_FALSE(serial.metrics.empty());

  for (std::size_t workers : {1u, 4u, 8u}) {
    SCOPED_TRACE(workers);
    const sim::MeasuredPoint parallel = test::measure_trials(metric_trial, stop, root, workers);
    expect_points_equal(serial.ber, parallel.ber);
    ASSERT_EQ(parallel.metrics.entries().size(), serial.metrics.entries().size());
    for (std::size_t m = 0; m < serial.metrics.entries().size(); ++m) {
      const auto& [name, stats] = serial.metrics.entries()[m];
      const auto& [pname, pstats] = parallel.metrics.entries()[m];
      EXPECT_EQ(pname, name);
      EXPECT_EQ(pstats.count, stats.count);
      // Bit-identical sums: ordered commit accumulates in trial order.
      EXPECT_EQ(pstats.sum, stats.sum);
      EXPECT_EQ(pstats.sum_sq, stats.sum_sq);
    }
  }
}

TEST(MetricAccumulator, MetricStopRuleCountsFailedTrials) {
  // stop.metric = "flag": the error budget counts trials whose flag is 0
  // (or absent), not bit errors. The serial reference defines the answer.
  sim::BerStop stop;
  stop.min_errors = 5;
  stop.max_bits = 100000;
  stop.max_trials = 100000;
  stop.metric = "flag";
  const Rng root(0x57D0);

  const sim::MeasuredPoint point = test::measure_trials(metric_trial, stop, root);
  const sim::MetricStats* flag = point.metrics.find("flag");
  ASSERT_NE(flag, nullptr);
  // Exactly min_errors failed trials committed (the last commit trips it).
  EXPECT_EQ(flag->count - static_cast<std::size_t>(flag->sum), 5u);
  EXPECT_LT(point.ber.trials, 100000u);

  // Parallel agrees for any worker count.
  const sim::MeasuredPoint parallel = test::measure_trials(metric_trial, stop, root, 4);
  expect_points_equal(point.ber, parallel.ber);

  // A metric no trial emits never succeeds: every trial is an error, so
  // the loop stops after exactly min_errors trials.
  sim::BerStop missing = stop;
  missing.metric = "not_emitted";
  const sim::MeasuredPoint degenerate = test::measure_trials(metric_trial, missing, root);
  EXPECT_EQ(degenerate.ber.trials, 5u);
}

TEST(SweepEngine, AcquisitionScenarioByteIdenticalAcrossWorkerCounts) {
  // The acceptance gate for the ported metric scenarios: a 1-worker and an
  // 8-worker run of an acquisition-kind sweep (gen-1 side door folded into
  // run_packet) must serialize byte-identical JSON, metrics included.
  ScenarioSpec scenario = ScenarioRegistry::global().make("gen1_acquisition");
  restrict_scenario(scenario, "ebn0_db", "14");
  restrict_scenario(scenario, "preamble_reps", "2");
  ASSERT_EQ(scenario.points.size(), 1u);

  SweepConfig config;
  config.seed = 0xACC'0001;
  config.stop.min_errors = 100;
  config.stop.max_bits = 6;  // six acquisition attempts
  config.stop.max_trials = 6;

  uint64_t digests[2] = {};
  const std::size_t worker_counts[] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    config.workers = worker_counts[i];
    const std::string path =
        "test_results/acq_w" + std::to_string(worker_counts[i]) + ".json";
    JsonSink json(path);
    const SweepResult result = SweepEngine(config).run(scenario, {&json});
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].ber.trials, 6u);
    // Acquisition accounting: one "bit" per attempt.
    EXPECT_EQ(result.records[0].ber.bits, 6u);
    const sim::MetricStats* acquired =
        result.records[0].metrics.find(txrx::metric_names::kAcquired);
    ASSERT_NE(acquired, nullptr);
    EXPECT_EQ(acquired->count, 6u);
    digests[i] = fnv1a(slurp(path));
  }
  EXPECT_NE(digests[0], fnv1a(""));
  EXPECT_EQ(digests[0], digests[1]);

  const std::string bytes = slurp("test_results/acq_w1.json");
  EXPECT_NE(bytes.find("\"metrics\""), std::string::npos);
  EXPECT_NE(bytes.find("\"timing_correct\""), std::string::npos);
}

TEST(SweepEngine, PortedMetricScenariosByteIdenticalAcrossWorkerCounts) {
  // Every scenario ported off the sequential sim::measure_ber path: a
  // 1-worker and an 8-worker run (first two grid points, tiny budgets)
  // must serialize byte-identical result JSON. gen1_acquisition has its
  // own deeper test above.
  for (const char* name :
       {"gen1_sync", "gen2_chanest_precision", "gen2_mlse_isi", "gen2_mlse_memory"}) {
    SCOPED_TRACE(name);
    ScenarioSpec scenario = ScenarioRegistry::global().make(name);
    ASSERT_GE(scenario.points.size(), 2u);
    scenario.points.resize(2);

    SweepConfig config;
    config.seed = 0x3AD5;
    config.stop.min_errors = 3;
    config.stop.max_bits = 600;
    config.stop.max_trials = 3;

    uint64_t digests[2] = {};
    const std::size_t worker_counts[] = {1, 8};
    for (int i = 0; i < 2; ++i) {
      config.workers = worker_counts[i];
      const std::string path = std::string("test_results/ported_") + name + "_w" +
                               std::to_string(worker_counts[i]) + ".json";
      JsonSink json(path);
      const SweepResult result = SweepEngine(config).run(scenario, {&json});
      ASSERT_EQ(result.records.size(), 2u);
      EXPECT_FALSE(result.records[0].metrics.empty());
      digests[i] = fnv1a(slurp(path));
    }
    EXPECT_NE(digests[0], fnv1a(""));
    EXPECT_EQ(digests[0], digests[1]);
  }
}

TEST(SweepEngine, RecordMetricsFiltersAndOrdersReductions) {
  ScenarioSpec scenario = tiny_scenario();
  scenario.points.resize(1);
  // Reversed order relative to emission: the filter list dictates the
  // recorded order, so result columns follow the spec, not the link.
  scenario.points[0].link.options.record_metrics = {
      txrx::metric_names::kSnrEstimate, txrx::metric_names::kAcquired};

  SweepConfig config;
  config.stop = tiny_stop();
  const SweepResult result = SweepEngine(config).run(scenario);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& entries = result.records[0].metrics.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, txrx::metric_names::kSnrEstimate);
  EXPECT_EQ(entries[1].first, txrx::metric_names::kAcquired);
}

TEST(SweepEngine, StopMetricNotRecordedFailsBeforeAnyTrialRuns) {
  // A stop metric the points cannot see (wrong vocabulary, or filtered out
  // by record_metrics) must be rejected up front.
  ScenarioSpec scenario = tiny_scenario();
  SweepConfig config;
  config.stop = tiny_stop();
  config.stop.metric = txrx::metric_names::kTimingCorrect;  // gen-2 never emits it
  EXPECT_THROW((void)SweepEngine(config).run(scenario), InvalidArgument);

  ScenarioSpec filtered = tiny_scenario();
  for (PointSpec& point : filtered.points) {
    point.link.options.record_metrics = {txrx::metric_names::kSnrEstimate};
  }
  SweepConfig config2;
  config2.stop = tiny_stop();
  config2.stop.metric = txrx::metric_names::kAcquired;  // emitted but not recorded
  EXPECT_THROW((void)SweepEngine(config2).run(filtered), InvalidArgument);

  // Recording it makes the same rule valid.
  for (PointSpec& point : filtered.points) {
    point.link.options.record_metrics = {txrx::metric_names::kAcquired};
  }
  const SweepResult result = SweepEngine(config2).run(filtered);
  EXPECT_EQ(result.records.size(), filtered.points.size());
}

TEST(SweepEngine, RunNamedExecutesRegistryScenario) {
  // Shrink a built-in via the registry round trip, then spot-check the
  // find() helper benches use for derived columns.
  SweepConfig config;
  config.seed = 7;
  config.workers = 2;
  config.stop.min_errors = 2;
  config.stop.max_bits = 300;
  config.stop.max_trials = 4;

  ScenarioSpec grid = ScenarioRegistry::global().make("gen2_cm_grid");
  grid.points.resize(2);  // AWGN @ 8 dB: full and mf_only
  const SweepResult result = SweepEngine(config).run(grid);

  ASSERT_EQ(result.records.size(), 2u);
  const PointRecord* full = result.find({{"backend", "full"}, {"channel", "AWGN"}});
  const PointRecord* mf = result.find({{"backend", "mf_only"}});
  ASSERT_NE(full, nullptr);
  ASSERT_NE(mf, nullptr);
  EXPECT_GT(full->ber.bits, 0u);
  EXPECT_EQ(result.find({{"backend", "nope"}}), nullptr);
}

}  // namespace
}  // namespace uwb::engine
