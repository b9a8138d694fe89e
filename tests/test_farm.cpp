// Tests for the fault-tolerant sweep farm: checkpoint serialization and
// versioning, retry/backoff/classification policy, fault-plan parsing,
// claim verification, and -- through the real uwb_sweep/uwb_farm binaries
// -- kill-and-resume determinism, fault-injected recovery, timeout
// supervision, graceful partial merges, and loud failure on corrupted
// checkpoints (mirroring the channel-cache tamper tests).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.h"
#include "engine/scenario_registry.h"
#include "farm/exit_codes.h"
#include "farm/farm.h"
#include "farm/farm_state.h"
#include "farm/fault.h"
#include "farm/runner.h"
#include "farm/verify.h"
#include "io/fields.h"
#include "io/file.h"
#include "io/json.h"
#include "io/result_io.h"
#include "io/spec_io.h"
#include "document_checks.h"

namespace uwb::farm {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& content) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Fresh scratch directory per test.
class FarmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("uwb_farm_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

// ------------------------------------------------------------ fault plan ----

TEST(FaultPlan, ParsesKindsShardsAndRepeatCounts) {
  const auto plan = parse_fault_plan("crash:shard3,hang:5,corrupt:shard2@1");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan[0].shard, 3u);
  EXPECT_EQ(plan[0].times, -1);
  EXPECT_EQ(plan[1].kind, FaultKind::kHang);
  EXPECT_EQ(plan[1].shard, 5u);
  EXPECT_EQ(plan[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan[2].shard, 2u);
  EXPECT_EQ(plan[2].times, 1);
}

TEST(FaultPlan, RejectsMalformedEntriesLoudly) {
  EXPECT_THROW(parse_fault_plan(""), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("explode:shard1"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("crash:shardX"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("crash:3@0"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("crash"), InvalidArgument);
  EXPECT_THROW(parse_fault_plan("crash:1,,hang:2"), InvalidArgument);
}

TEST(FaultPlan, RepeatCountRequiresMarkerDirectory) {
  EXPECT_THROW(FaultInjector(parse_fault_plan("crash:0@1"), 0, ""), InvalidArgument);
  // Faults for other shards don't arm this injector at all.
  const FaultInjector other(parse_fault_plan("crash:7@1"), 0, "");
  EXPECT_FALSE(other.armed());
}

// --------------------------------------------------------------- backoff ----

TEST(Backoff, DeterministicExponentialWithBoundedJitter) {
  RetryPolicy retry;
  retry.backoff_base_s = 0.25;
  retry.backoff_max_s = 8.0;
  // Pure function of (seed, shard, attempt).
  EXPECT_EQ(backoff_delay_s(retry, 42, 3, 2), backoff_delay_s(retry, 42, 3, 2));
  EXPECT_NE(backoff_delay_s(retry, 42, 3, 2), backoff_delay_s(retry, 42, 4, 2));
  EXPECT_NE(backoff_delay_s(retry, 42, 3, 2), backoff_delay_s(retry, 42, 3, 3));
  // Attempt 2 draws from [0.5, 1.5) x base; later attempts double, capped.
  const double first = backoff_delay_s(retry, 7, 0, 2);
  EXPECT_GE(first, 0.5 * retry.backoff_base_s);
  EXPECT_LT(first, 1.5 * retry.backoff_base_s);
  const double huge = backoff_delay_s(retry, 7, 0, 30);
  EXPECT_LT(huge, 1.5 * retry.backoff_max_s);
  EXPECT_GE(huge, 0.5 * retry.backoff_max_s);
}

// -------------------------------------------------------- classification ----

TEST(ExitClassification, PermanentVsTransient) {
  ExitStatus s;
  s.kind = ExitStatus::Kind::kExited;
  s.code = kExitOk;
  EXPECT_TRUE(s.ok());
  s.code = kExitRuntime;
  EXPECT_TRUE(is_transient(s));  // generic runtime errors may be environmental
  s.code = kExitBadArgs;
  EXPECT_FALSE(is_transient(s));
  s.code = kExitSpecLoad;
  EXPECT_FALSE(is_transient(s));
  s.code = kExitInterrupted;
  EXPECT_TRUE(is_transient(s));
  s.code = 127;  // exec failure
  EXPECT_TRUE(is_transient(s));
  s.kind = ExitStatus::Kind::kSignaled;
  s.sig = 9;
  EXPECT_TRUE(is_transient(s));
  EXPECT_EQ(s.describe(), "signal 9");
  s.kind = ExitStatus::Kind::kTimeout;
  EXPECT_TRUE(is_transient(s));
  EXPECT_EQ(s.describe(), "timeout");
}

// ------------------------------------------------------- checkpoint JSON ----

FarmSpec sample_farm_spec() {
  FarmSpec spec;
  spec.scenario = "gen2_cm_grid";
  spec.seed = 0xDEADBEEFull;
  spec.stop.min_errors = 4;
  spec.stop.max_bits = 1200;
  spec.stop.max_trials = 4;
  spec.stop.metric = "timing_correct";
  spec.shard_count = 3;
  spec.num_points = 12;
  spec.workers_per_shard = 2;
  spec.channel_cache_dir = "/tmp/channels";
  spec.retry.max_attempts = 5;
  spec.retry.timeout_s = 2.5;
  return spec;
}

FarmState sample_farm_state() {
  FarmState state;
  state.plan_digest = 0x0123456789abcdefull;
  state.shards.resize(2);
  state.shards[0].index = 0;
  state.shards[0].status = ShardStatus::kDone;
  state.shards[0].attempts = 2;
  state.shards[0].last_outcome = "ok";
  state.shards[0].wall_s = 1.5;
  state.shards[0].trials = 42;
  state.shards[0].points = 3;
  state.shards[0].digest = 0xfeedfacecafebeefull;
  state.shards[1].index = 1;
  state.shards[1].status = ShardStatus::kFailed;
  state.shards[1].last_outcome = "signal 9";
  return state;
}

TEST(FarmSpecJson, RoundTripsExactly) {
  const FarmSpec spec = sample_farm_spec();
  EXPECT_EQ(farm_spec_from_json(farm_spec_to_json(spec)), spec);
  // Pinned from the hand-written serializer, before the field lists.
  EXPECT_EQ(fnv1a_digest(io::dump_json_pretty(farm_spec_to_json(spec))), 0x181937450611303bULL);
}

TEST(FarmSpecJson, EveryFieldRoundTripsAndMissingKeysThrow) {
  test::DocumentShape shape;
  shape.fixed = {"/version"};
  // progress came after format version 1; metric is written only when set.
  shape.optional = {"/progress", "/stop/metric"};
  test::expect_every_field_round_trips(sample_farm_spec(), farm_spec_to_json,
                                       farm_spec_from_json, shape);
  test::expect_missing_keys_throw_unless_optional(sample_farm_spec(), farm_spec_to_json,
                                                  farm_spec_from_json, shape);
}

TEST(FarmStateJson, EveryFieldRoundTripsAndMissingKeysThrow) {
  test::DocumentShape shape;
  shape.alternates = {{"done", "pending"}, {"failed", "done"}};
  shape.fixed = {"/version", "/shards/*/index"};  // a shard's index is its position
  test::expect_every_field_round_trips(sample_farm_state(), farm_state_to_json,
                                       farm_state_from_json, shape);
  test::expect_missing_keys_throw_unless_optional(sample_farm_state(), farm_state_to_json,
                                                  farm_state_from_json, shape);
}

TEST(FarmSpecJson, RejectsVersionMismatchAndUnknownKeys) {
  FarmSpec spec;
  spec.scenario = "x";
  io::JsonValue doc = farm_spec_to_json(spec);

  // Rebuild with a bumped version: serialize, tweak textually, reparse.
  std::string text = io::dump_json(doc);
  const auto at = text.find("\"version\": 1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 12, "\"version\": 9");
  EXPECT_THROW(farm_spec_from_json(io::parse_json(text)), InvalidArgument);

  io::JsonValue extra = farm_spec_to_json(spec);
  extra.set("surprise", io::JsonValue::number(std::uint64_t{1}));
  EXPECT_THROW(farm_spec_from_json(extra), InvalidArgument);
}

TEST(FarmStateJson, RoundTripsAndValidates) {
  const FarmState state = sample_farm_state();
  EXPECT_EQ(farm_state_from_json(farm_state_to_json(state)), state);
  // Pinned from the hand-written serializer, before the field lists.
  EXPECT_EQ(fnv1a_digest(io::dump_json_pretty(farm_state_to_json(state))), 0xf23c956f6d6da18fULL);

  // Out-of-order / missing shard entries fail loudly.
  FarmState shuffled = state;
  std::swap(shuffled.shards[0], shuffled.shards[1]);
  EXPECT_THROW(farm_state_from_json(farm_state_to_json(shuffled)), InvalidArgument);

  io::JsonValue tampered = farm_state_to_json(state);
  tampered.set("bonus", io::JsonValue::number(std::uint64_t{1}));
  EXPECT_THROW(farm_state_from_json(tampered), InvalidArgument);
}

TEST_F(FarmTest, TruncatedStateJsonFailsLoadLoudly) {
  FarmState state;
  state.plan_digest = 1;
  state.shards.resize(1);
  save_farm_state(state, path("state.json"));
  const std::string full = slurp(path("state.json"));
  spit(path("state.json"), full.substr(0, full.size() / 2));
  EXPECT_THROW(load_farm_state(path("state.json")), InvalidArgument);
}

// ------------------------------------------------------------- verify ----

io::ResultDoc sample_doc() {
  io::ResultDoc doc;
  doc.scenario = "toy";
  doc.seed = 7;
  doc.stop.min_errors = 4;
  doc.stop.max_bits = 1000;
  doc.stop.max_trials = 10;
  const char* bers[] = {"0.1", "0.02", "0.004"};
  for (std::uint64_t i = 0; i < 3; ++i) {
    io::ResultPoint point;
    point.index = i;
    point.label = "p" + std::to_string(i);
    point.tags = {{"channel", "CM1"}, {"ebn0_db", std::to_string(4 * i)}};
    point.ber = bers[i];
    point.ci95 = "0.001";
    point.errors = 10;
    point.bits = 1000;
    point.trials = 5;
    doc.points.push_back(std::move(point));
  }
  return doc;
}

io::JsonValue expectations(const std::string& checks_json) {
  return io::parse_json("{\"version\": 1, \"scenario\": \"toy\", \"points\": 3, "
                        "\"checks\": " + checks_json + "}");
}

TEST(Verify, PassesRangeMonotoneAndAccounting) {
  const VerifyReport report = verify_result(
      sample_doc(),
      expectations("[{\"check\": \"range\", \"metric\": \"ber\", \"min\": 0, "
                   "\"max\": 0.5},"
                   "{\"check\": \"monotone\", \"metric\": \"ber\", \"axis\": "
                   "\"ebn0_db\", \"direction\": \"nonincreasing\"},"
                   "{\"check\": \"accounting\"}]"));
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_EQ(report.checks, 5u);  // scenario + points + 3 checks
}

TEST(Verify, CatchesViolations) {
  // BER rising with SNR: the physics claim the farm exists to defend.
  io::ResultDoc doc = sample_doc();
  doc.points[2].ber = "0.5";
  const VerifyReport monotone = verify_result(
      doc, expectations("[{\"check\": \"monotone\", \"metric\": \"ber\", \"axis\": "
                        "\"ebn0_db\", \"direction\": \"nonincreasing\"}]"));
  EXPECT_FALSE(monotone.ok());

  const VerifyReport range = verify_result(
      sample_doc(), expectations("[{\"check\": \"range\", \"metric\": \"ber\", "
                                 "\"min\": 0.9}]"));
  EXPECT_EQ(range.failures.size(), 3u);

  io::ResultDoc bad_accounting = sample_doc();
  bad_accounting.points[1].errors = 2000;  // more errors than bits
  const VerifyReport accounting = verify_result(
      bad_accounting, expectations("[{\"check\": \"accounting\"}]"));
  EXPECT_FALSE(accounting.ok());
}

TEST(Verify, CiContainsChecksIntervalsAgainstValueOrOwnBer) {
  io::ResultDoc doc = sample_doc();
  for (io::ResultPoint& point : doc.points) {
    point.ci_lo = "0.001";
    point.ci_hi = "0.2";
    point.ci_method = "clopper_pearson";
  }
  // Every point's interval brackets its own estimate...
  EXPECT_TRUE(verify_result(doc, expectations("[{\"check\": \"ci_contains\"}]")).ok());
  // ...and a fixed value can be asserted inside filtered intervals.
  EXPECT_TRUE(verify_result(doc, expectations("[{\"check\": \"ci_contains\", "
                                              "\"value\": 0.05, \"where\": "
                                              "{\"channel\": \"CM1\"}}]"))
                  .ok());
  EXPECT_FALSE(
      verify_result(doc, expectations("[{\"check\": \"ci_contains\", "
                                      "\"value\": 0.9}]"))
          .ok());

  // An estimate outside its own interval is a broken estimator, caught.
  doc.points[0].ber = "0.5";
  EXPECT_FALSE(verify_result(doc, expectations("[{\"check\": \"ci_contains\"}]")).ok());

  // Points without two-sided intervals (pre-CI documents) fail, not pass.
  io::ResultDoc old_doc = sample_doc();
  EXPECT_FALSE(
      verify_result(old_doc, expectations("[{\"check\": \"ci_contains\"}]")).ok());
}

TEST(Verify, ReferenceFixtureOverlapsItsOwnRunAndCatchesAShift) {
  // A document verifies against its own fixture; the fixture records the
  // seed and the spec digest, and matches points by label. A point whose
  // counts moved far outside the Bonferroni interval fails; one that moved
  // inside it passes.
  const io::ResultDoc doc = sample_doc();
  const io::JsonValue fixture = io::parse_json(reference_fixture(doc, "{\"spec\": 1}"));
  const io::JsonValue& reference = fixture.at("checks").items().at(0);
  EXPECT_EQ(reference.at("seed").as_uint64(), 7u);
  EXPECT_EQ(io::hex_digest_from_json(reference.at("spec_digest")),
            fnv1a_digest("{\"spec\": 1}"));
  const VerifyReport same = verify_result(doc, fixture);
  EXPECT_TRUE(same.ok()) << (same.failures.empty() ? "" : same.failures[0]);
  EXPECT_EQ(same.checks, 3u);  // scenario + points + reference

  io::ResultDoc near = doc;
  near.points[1].errors = 14;  // 10 vs 14 in 1000: well inside the intervals
  EXPECT_TRUE(verify_result(near, fixture).ok());
  io::ResultDoc far = doc;
  far.points[1].errors = 60;
  const VerifyReport shifted = verify_result(far, fixture);
  ASSERT_EQ(shifted.failures.size(), 1u);
  EXPECT_NE(shifted.failures[0].find("'p1'"), std::string::npos);

  io::ResultDoc renamed = doc;
  renamed.points[2].label = "elsewhere";
  EXPECT_FALSE(verify_result(renamed, fixture).ok());
}

TEST(Verify, AnalyticChecksTheAntipodalBand) {
  // Points at 4 and 8 dB against [Q(sqrt(2 g)), Q(sqrt(2 g / L))]: BER
  // 1.25e-2 / 1.9e-4 are the ideal receiver, so a 1 dB loss band holds
  // them, a BER far better than ideal fails, and so does one far worse
  // than the stated loss allows.
  io::ResultDoc doc = sample_doc();
  doc.points.resize(2);
  doc.points[0].tags = {{"ebn0_db", "4"}};
  doc.points[0].errors = 1250;
  doc.points[0].bits = 100000;
  doc.points[1].tags = {{"ebn0_db", "8"}};
  doc.points[1].errors = 190;
  doc.points[1].bits = 1000000;
  const io::JsonValue analytic = io::parse_json(
      "{\"version\": 1, \"checks\": [{\"check\": \"analytic\", \"axis\": "
      "\"ebn0_db\", \"loss_db\": 1}]}");
  const VerifyReport ideal = verify_result(doc, analytic);
  EXPECT_TRUE(ideal.ok()) << (ideal.failures.empty() ? "" : ideal.failures[0]);
  io::ResultDoc too_good = doc;
  too_good.points[0].errors = 600;
  EXPECT_FALSE(verify_result(too_good, analytic).ok());
  io::ResultDoc too_bad = doc;
  too_bad.points[1].errors = 2000;  // 2e-3 at 8 dB: ~2.5 dB of loss
  EXPECT_FALSE(verify_result(too_bad, analytic).ok());
  EXPECT_THROW((void)verify_result(doc, io::parse_json(
                   "{\"version\": 1, \"checks\": [{\"check\": \"analytic\", \"axis\": "
                   "\"ebn0_db\", \"loss_db\": -1}]}")),
               InvalidArgument);
}

TEST(Verify, EmptySelectionAndMalformedExpectationsFailLoudly) {
  // A filter matching nothing is a stale expectation, not a pass.
  const VerifyReport empty = verify_result(
      sample_doc(),
      expectations("[{\"check\": \"range\", \"metric\": \"ber\", \"max\": 1, "
                   "\"where\": {\"channel\": \"CM9\"}}]"));
  EXPECT_FALSE(empty.ok());

  EXPECT_THROW(verify_result(sample_doc(),
                             io::parse_json("{\"version\": 1, \"nonsense\": 1}")),
               InvalidArgument);
  EXPECT_THROW(verify_result(sample_doc(), io::parse_json("{\"version\": 2}")),
               InvalidArgument);
  EXPECT_THROW(
      verify_result(sample_doc(),
                    expectations("[{\"check\": \"range\", \"metric\": \"ber\"}]")),
      InvalidArgument);  // neither min nor max
  EXPECT_THROW(verify_result(sample_doc(),
                             expectations("[{\"check\": \"vibes\"}]")),
               InvalidArgument);

  // A typo'd key in any check kind throws instead of widening the
  // selection (where), passing on the point's own BER (value) or dropping
  // a bound (min_trials, group_by).
  for (const char* typo : {
           R"({"check": "range", "metric": "ber", "max": 1, "wher": {"channel": "CM9"}})",
           R"({"check": "monotone", "metric": "ber", "axis": "ebn0_db",
               "direction": "nonincreasing", "group_bi": ["channel"]})",
           R"({"check": "accounting", "min_trial": 1000})",
           R"({"check": "ci_contains", "valeu": 0.9})",
           R"({"check": "analytic", "axis": "ebn0_db", "loss_db": 1, "wher": {}})",
           R"({"check": "reference", "points": [], "seeds": 1})",
           R"({"check": "reference", "points": [{"label": "p0", "errors": 10,
               "bits": 1000, "ber": 0.01, "ci95": 0.001, "weigthed": true}]})"}) {
    SCOPED_TRACE(typo);
    EXPECT_THROW((void)verify_result(sample_doc(), expectations(std::string("[") + typo + "]")),
                 InvalidArgument);
  }
}

// ----------------------------------------------- checkpoint store (e2e) ----

engine::ScenarioSpec tiny_scenario() {
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen2_cm_grid");
  engine::restrict_scenario(scenario, "channel", "CM1");
  return scenario;
}

FarmSpec tiny_spec(std::size_t shards) {
  FarmSpec spec;
  spec.scenario = "gen2_cm_grid";
  spec.stop.min_errors = 1;
  spec.stop.max_bits = 150;
  spec.stop.max_trials = 4;
  spec.shard_count = shards;
  spec.retry.backoff_base_s = 0.05;
  spec.retry.backoff_max_s = 0.1;
  return spec;
}

TEST_F(FarmTest, InitRefusesToClobberAndLoadRunPinsThePlan) {
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  init_run(tiny_scenario(), spec, paths);
  EXPECT_EQ(spec.num_points, 6u);

  FarmSpec again = tiny_spec(2);
  EXPECT_THROW(init_run(tiny_scenario(), again, paths), InvalidArgument);

  // Swapping the plan under the checkpoint fails the digest pin.
  const LoadedRun run = load_run(paths);
  EXPECT_EQ(run.spec, spec);
  std::string plan = slurp(paths.scenario_json());
  plan.push_back('\n');
  spit(paths.scenario_json(), plan);
  EXPECT_THROW(load_run(paths), InvalidArgument);
}

TEST_F(FarmTest, RunShardsProducesByteIdenticalMergeAndSurvivesResume) {
  // Reference: the worker itself, unsharded, same (plan, seed, stop).
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  init_run(tiny_scenario(), spec, paths);

  const std::string ref = path("ref.json");
  {
    const std::string cmd = std::string(UWB_SWEEP_BINARY) + " --file " +
                            paths.scenario_json() + " --seed " +
                            std::to_string(spec.seed) +
                            " --min-errors 1 --max-bits 150 --max-trials 4 --quiet"
                            " --out " + ref + " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  FarmState state = load_farm_state(paths.state_json());
  LocalExecTransport transport;
  const FarmRunReport report =
      run_shards(spec, state, paths, transport, UWB_SWEEP_BINARY, 0, /*quiet=*/true);
  ASSERT_TRUE(report.complete());

  merge_run(spec, state, paths, path("merged.json"));
  EXPECT_EQ(slurp(path("merged.json")), slurp(ref));

  // Resume of a complete run is a no-op that still merges identically.
  LoadedRun resumed = load_run(paths);
  const FarmRunReport again = run_shards(resumed.spec, resumed.state, paths, transport,
                                         UWB_SWEEP_BINARY, 0, /*quiet=*/true);
  EXPECT_TRUE(again.complete());
  merge_run(resumed.spec, resumed.state, paths, path("merged2.json"));
  EXPECT_EQ(slurp(path("merged2.json")), slurp(ref));
}

TEST_F(FarmTest, KilledWorkerIsRetriedAndResultStaysExact) {
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  init_run(tiny_scenario(), spec, paths);
  FarmState state = load_farm_state(paths.state_json());

  // SIGKILL shard 1's first attempt through the fault hook; the retry
  // (fault spent) must recover and the merge must still be byte-exact.
  ::setenv(kFaultEnv, "crash:shard1@1", 1);
  ::setenv(kFaultDirEnv, path("markers").c_str(), 1);
  fs::create_directories(path("markers"));
  LocalExecTransport transport;
  const FarmRunReport report =
      run_shards(spec, state, paths, transport, UWB_SWEEP_BINARY, 0, /*quiet=*/true);
  ::unsetenv(kFaultEnv);
  ::unsetenv(kFaultDirEnv);

  ASSERT_TRUE(report.complete());
  EXPECT_EQ(state.shards[1].attempts, 2u);
  EXPECT_EQ(state.shards[1].last_outcome, "ok");

  const std::string ref = path("ref.json");
  const std::string cmd = std::string(UWB_SWEEP_BINARY) + " --file " +
                          paths.scenario_json() + " --seed " +
                          std::to_string(spec.seed) +
                          " --min-errors 1 --max-bits 150 --max-trials 4 --quiet"
                          " --out " + ref + " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  merge_run(spec, state, paths, path("merged.json"));
  EXPECT_EQ(slurp(path("merged.json")), slurp(ref));
}

TEST_F(FarmTest, HangingWorkerHitsTimeoutAndCorruptClaimIsRejected) {
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  spec.retry.max_attempts = 1;
  spec.retry.timeout_s = 2.0;
  init_run(tiny_scenario(), spec, paths);
  FarmState state = load_farm_state(paths.state_json());

  ::setenv(kFaultEnv, "hang:shard0", 1);
  LocalExecTransport transport;
  FarmRunReport report =
      run_shards(spec, state, paths, transport, UWB_SWEEP_BINARY, 0, /*quiet=*/true);
  ::unsetenv(kFaultEnv);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(state.shards[0].status, ShardStatus::kFailed);
  EXPECT_EQ(state.shards[0].last_outcome, "timeout");

  // A worker that exits 0 with a corrupt result must not count as done.
  ::setenv(kFaultEnv, "corrupt:shard0", 1);
  LoadedRun resumed = load_run(paths);
  resumed.spec.retry.max_attempts = 1;
  report = run_shards(resumed.spec, resumed.state, paths, transport, UWB_SWEEP_BINARY,
                      0, /*quiet=*/true);
  ::unsetenv(kFaultEnv);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(resumed.state.shards[0].status, ShardStatus::kFailed);
  EXPECT_NE(resumed.state.shards[0].last_outcome.find("invalid result"),
            std::string::npos);

  // Partial merge (degraded mode) carries shard 1's points only.
  merge_run(resumed.spec, resumed.state, paths, path("partial.json"),
            /*allow_partial=*/true);
  const io::ResultDoc partial = io::parse_result_json(slurp(path("partial.json")));
  ASSERT_EQ(partial.points.size(), 3u);
  for (const io::ResultPoint& point : partial.points) {
    EXPECT_EQ(point.index % 2, 1u);
  }
  // ...and the complete merge refuses.
  EXPECT_THROW(merge_run(resumed.spec, resumed.state, paths, path("full.json")),
               InvalidArgument);
}

TEST_F(FarmTest, TamperedDoneShardFailsResumeLoudly) {
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  init_run(tiny_scenario(), spec, paths);
  FarmState state = load_farm_state(paths.state_json());
  LocalExecTransport transport;
  ASSERT_TRUE(run_shards(spec, state, paths, transport, UWB_SWEEP_BINARY, 0, true)
                  .complete());

  // Flip one byte inside shard 0's checkpointed result.
  std::string doc = slurp(paths.shard_result(0));
  const auto pos = doc.find("\"trials\": ");
  ASSERT_NE(pos, std::string::npos);
  doc[pos + 10] = doc[pos + 10] == '9' ? '8' : '9';
  spit(paths.shard_result(0), doc);
  EXPECT_THROW(load_run(paths), InvalidArgument);

  // Deleting it entirely is just as loud.
  fs::remove(paths.shard_result(0));
  EXPECT_THROW(load_run(paths), InvalidArgument);
}

TEST_F(FarmTest, CheckpointVersionMismatchFailsResumeLoudly) {
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(2);
  init_run(tiny_scenario(), spec, paths);

  std::string farm_json = slurp(paths.farm_json());
  const auto at = farm_json.find("\"version\": 1");
  ASSERT_NE(at, std::string::npos);
  farm_json.replace(at, 12, "\"version\": 2");
  spit(paths.farm_json(), farm_json);
  try {
    (void)load_run(paths);
    FAIL() << "version mismatch did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// -------------------------------------------------- worker CLI contract ----

int run_cli(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(FarmTest, WorkerExitCodeContract) {
  const std::string sweep(UWB_SWEEP_BINARY);
  EXPECT_EQ(run_cli(sweep + " --definitely-not-a-flag"), kExitBadArgs);
  EXPECT_EQ(run_cli(sweep + " --shard 2/2"), kExitBadArgs);
  EXPECT_EQ(run_cli(sweep + " --file " + path("missing.json") + " --out " +
                    path("out.json")),
            kExitSpecLoad);
  spit(path("broken.json"), "{\"name\": ");
  EXPECT_EQ(run_cli(sweep + " --file " + path("broken.json") + " --out " +
                    path("out.json")),
            kExitSpecLoad);
}

TEST_F(FarmTest, HostileInputsEndInTheExitCodeContract) {
  const std::string sweep(UWB_SWEEP_BINARY);
  // An ensemble too large to hold in memory: a bad flag (2) or a bad spec
  // (3), never an allocation failure mid-run.
  EXPECT_EQ(run_cli(sweep + " gen2_cm_grid --channel-ensemble 100000000000000 --fast"),
            kExitBadArgs);
  engine::ScenarioSpec oversized = tiny_scenario();
  for (engine::PointSpec& point : oversized.points) {
    point.link.options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
    point.link.options.channel_source.ensemble_count = 100'000'000'000'000;
  }
  io::save_scenario_file(oversized, path("oversized.json"));
  EXPECT_EQ(run_cli(sweep + " --file " + path("oversized.json") + " --out " +
                    path("out.json")),
            kExitSpecLoad);

  // A payload too large for any vector is a bad spec (3); a stop budget
  // past what a JSON number carries exactly is a bad flag (2).
  engine::ScenarioSpec huge_payload = tiny_scenario();
  for (engine::PointSpec& point : huge_payload.points) {
    point.link.options.payload_bits = std::numeric_limits<std::size_t>::max();
  }
  io::save_scenario_file(huge_payload, path("huge_payload.json"));
  EXPECT_EQ(run_cli(sweep + " --file " + path("huge_payload.json") + " --out " +
                    path("out.json")),
            kExitSpecLoad);
  EXPECT_EQ(run_cli(sweep + " gen2_cm_grid --max-trials 18446744073709551615 --fast"),
            kExitBadArgs);
  EXPECT_EQ(run_cli(sweep + " gen2_cm_grid --adaptive-budget 9007199254740993 --fast"),
            kExitBadArgs);

  // strtoull skips leading whitespace and wraps a negative: both CLIs
  // require a leading digit. A worker count past engine::kMaxWorkers is a
  // bad flag (or a bad farm spec), never a thread-creation failure.
  const std::string farm_run = std::string(UWB_FARM_BINARY) + " run gen2_cm_grid";
  EXPECT_EQ(run_cli(farm_run + " --shards ' -1' --run-dir " + path("neg_shards")), kExitBadArgs);
  EXPECT_EQ(run_cli(sweep + " gen2_cm_grid --seed ' -1' --fast"), kExitBadArgs);
  EXPECT_EQ(run_cli(sweep + " gen2_cm_grid --workers 18446744073709551615 --fast"),
            kExitBadArgs);
  EXPECT_EQ(run_cli(farm_run + " --workers-per-shard 18446744073709551615 --run-dir " +
                    path("many_workers")),
            kExitBadArgs);
  FarmSpec many_workers = tiny_spec(1);
  many_workers.workers_per_shard = std::numeric_limits<std::size_t>::max();
  save_farm_spec(many_workers, path("many_workers.json"));
  EXPECT_THROW((void)load_farm_spec(path("many_workers.json")), InvalidArgument);

  // An exception no validator anticipates -- here an anti-alias filter too
  // long for any vector, thrown while building the point's link -- is a
  // runtime failure (1), not an abort.
  engine::ScenarioSpec huge_filter = tiny_scenario();
  for (engine::PointSpec& point : huge_filter.points) {
    point.link.gen2().front_end.anti_alias_taps = std::numeric_limits<std::size_t>::max();
  }
  io::save_scenario_file(huge_filter, path("huge_filter.json"));
  EXPECT_EQ(run_cli(sweep + " --file " + path("huge_filter.json") + " --out " +
                    path("out.json")),
            kExitRuntime);

  // uwb_farm maps the same class of failure to 1: a run directory whose
  // name the filesystem rejects (ENAMETOOLONG) surfaces as a
  // std::filesystem error.
  EXPECT_EQ(run_cli(std::string(UWB_FARM_BINARY) + " run gen2_cm_grid --shards 2 --run-dir " +
                    path(std::string(300, 'd'))),
            kExitRuntime);
}

TEST_F(FarmTest, SigtermFlushesValidPartialDocAndInterruptedManifest) {
  // A sweep with a stop budget far past what it can finish (hours of
  // work) killed almost immediately: the worker must exit kExitInterrupted
  // with a parseable result document holding a completed-point prefix, and
  // its manifest must say so. The budget is explicit because the default
  // one finishes this scenario in well under the half second before the
  // kill on a fast host.
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(1);
  init_run(tiny_scenario(), spec, paths);
  const std::string out = path("partial.json");
  const std::string cmd = std::string(UWB_SWEEP_BINARY) + " --file " +
                          paths.scenario_json() +
                          " --min-errors 1000000 --max-bits 1000000000000"
                          " --max-trials 1000000000 --quiet --out " + out +
                          " >/dev/null 2>&1 & pid=$!; sleep 0.5;"
                          " kill -TERM $pid; wait $pid";
  const int status = std::system(("sh -c '" + cmd + "'").c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kExitInterrupted);

  const io::ResultDoc partial = io::parse_result_json(slurp(out));
  EXPECT_EQ(partial.scenario, "gen2_cm_grid");
  EXPECT_LT(partial.points.size(), 6u);  // prefix, not a full run
  for (std::size_t i = 0; i < partial.points.size(); ++i) {
    EXPECT_EQ(partial.points[i].index, i);  // exact completed-point prefix
  }
  const io::JsonValue manifest = io::parse_json(slurp(out + ".run.json"));
  const io::JsonValue* interrupted = manifest.find("interrupted");
  ASSERT_NE(interrupted, nullptr);
  EXPECT_TRUE(interrupted->as_bool());
}

TEST_F(FarmTest, MergeCliRejectsGapsUnlessAllowPartial) {
  // Build two shard docs by really running shards 0 and 2 of 3.
  const RunPaths paths{path("run")};
  FarmSpec spec = tiny_spec(3);
  init_run(tiny_scenario(), spec, paths);
  const std::string sweep(UWB_SWEEP_BINARY);
  const std::string base = sweep + " --file " + paths.scenario_json() +
                           " --min-errors 1 --max-bits 150 --max-trials 4 --quiet ";
  ASSERT_EQ(run_cli(base + "--shard 0/3 --out " + path("s0.json")), 0);
  ASSERT_EQ(run_cli(base + "--shard 2/3 --out " + path("s2.json")), 0);

  // shard 1 missing: loud failure without --allow-partial.
  EXPECT_NE(run_cli(sweep + " --merge " + path("s0.json") + " " + path("s2.json") +
                    " --out " + path("m.json")),
            0);
  EXPECT_EQ(run_cli(sweep + " --merge " + path("s0.json") + " " + path("s2.json") +
                    " --allow-partial --out " + path("m.json")),
            0);
  // A shard the result reader rejects -- here a point key it does not
  // know -- is a document that failed to load: exit 3, like a bad spec.
  std::string s2 = io::read_file(path("s2.json"), "test");
  s2.replace(s2.find("\"label\""), 0, "\"bogus\": 1, ");
  io::write_file(path("s2_bogus.json"), s2, "test");
  EXPECT_EQ(run_cli(sweep + " --merge " + path("s0.json") + " " + path("s2_bogus.json") +
                    " --allow-partial --out " + path("m3.json")),
            kExitSpecLoad);
  // Duplicates stay fatal even under --allow-partial.
  EXPECT_NE(run_cli(sweep + " --merge " + path("s0.json") + " " + path("s0.json") +
                    " --allow-partial --out " + path("m2.json")),
            0);
}

}  // namespace
}  // namespace uwb::farm
