// Physics oracle for the gen-1 link. Golden digests (test_golden) can only
// say "changed"; this says whether the physics still holds. Each gen-1
// registry scenario reruns at a modest budget on a seed independent of the
// reference fixtures' (tests/fixtures/oracle, written by
// tools/make_oracle_fixtures.sh at a high budget), and every point's BER
// interval must overlap the fixture's (farm::verify's `reference` check,
// Bonferroni-corrected over the points). The AWGN waterfall must also lie
// within a stated loss of antipodal signalling (`analytic`), and one
// importance-sampled point must agree with the fixture's plain Monte-Carlo
// interval. A negative control -- the waterfall rerun 0.5 dB off its
// nominal Eb/N0 -- must fail the reference check, so the oracle is shown
// to see a change that size. A golden re-pin is allowed only with this
// test green on the same commit (docs/engine.md).

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "farm/verify.h"
#include "io/file.h"
#include "io/fields.h"
#include "io/json.h"
#include "io/result_io.h"
#include "io/spec_io.h"

namespace uwb {
namespace {

/// The fixtures ran on seed 1592590337; the reruns use another one.
constexpr std::uint64_t kOracleSeed = 1592590338;

std::string source_path(const std::string& relative) {
  return std::string(UWB_SOURCE_DIR) + "/" + relative;
}

io::JsonValue load_json(const std::string& relative) {
  return io::parse_json(io::read_file(source_path(relative), "oracle"));
}

/// Runs \p scenario on the oracle seed to \p max_trials trials per point
/// (stopping early at \p min_errors errors) and returns its result document.
io::ResultDoc run(const engine::ScenarioSpec& scenario, std::size_t min_errors,
                  std::size_t max_trials) {
  engine::SweepConfig config;
  config.seed = kOracleSeed;
  config.workers = 4;
  config.stop.min_errors = min_errors;
  config.stop.max_bits = std::numeric_limits<std::size_t>::max();
  config.stop.max_trials = max_trials;
  const std::string path = ::testing::TempDir() + "oracle_" + scenario.name + ".json";
  {
    engine::JsonSink sink(path);
    (void)engine::SweepEngine(config).run(scenario, {&sink});
  }
  const io::ResultDoc doc = io::parse_result_json(io::read_file(path, "oracle"));
  std::remove(path.c_str());
  std::remove((path + ".run.json").c_str());
  return doc;
}

/// The scenario's reference fixture, checked to be for this very spec and
/// for a seed other than the oracle's.
io::JsonValue fixture_for(const engine::ScenarioSpec& scenario) {
  io::JsonValue fixture = load_json("tests/fixtures/oracle/" + scenario.name + ".json");
  const io::JsonValue& reference = fixture.at("checks").items().at(0);
  EXPECT_EQ(reference.at("check").as_string(), "reference");
  EXPECT_EQ(io::hex_digest_from_json(reference.at("spec_digest")),
            farm::fnv1a_digest(io::scenario_to_json_text(scenario)))
      << scenario.name << ": the fixture was made for another spec; regenerate it";
  EXPECT_NE(reference.at("seed").as_uint64(), kOracleSeed);
  return fixture;
}

void expect_verified(const io::ResultDoc& doc, const io::JsonValue& expectations,
                     const std::string& what) {
  const farm::VerifyReport report = farm::verify_result(doc, expectations);
  EXPECT_GT(report.checks, 0u) << what;
  for (const std::string& failure : report.failures) ADD_FAILURE() << what << ": " << failure;
}

const engine::ScenarioSpec& waterfall() {
  static const engine::ScenarioSpec spec =
      engine::ScenarioRegistry::global().make("gen1_waterfall");
  return spec;
}

TEST(PhysicsOracle, Gen1WaterfallMatchesItsReferenceAndTheAntipodalBound) {
  const io::ResultDoc doc = run(waterfall(), 200, 1500);
  expect_verified(doc, fixture_for(waterfall()), "reference");
  expect_verified(doc, load_json("bench/expectations/gen1_waterfall_awgn.json"), "analytic");
}

TEST(PhysicsOracle, Gen1WaterfallHalfADecibelOffFailsTheReference) {
  // The negative control: the same run with every point's Eb/N0 0.5 dB
  // above its label must miss the fixture somewhere.
  engine::ScenarioSpec shifted = waterfall();
  for (engine::PointSpec& point : shifted.points) point.link.options.ebn0_db += 0.5;
  const io::ResultDoc doc = run(shifted, 200, 1500);
  const farm::VerifyReport report = farm::verify_result(doc, fixture_for(waterfall()));
  EXPECT_FALSE(report.ok()) << "a 0.5 dB shift passed the reference check";
}

TEST(PhysicsOracle, Gen1ImportanceSampledPointMatchesPlainMonteCarlo) {
  // At 8 dB (BER ~2.4e-4) the fixture's plain interval rests on ~190
  // errors; the importance-sampled rerun scores one tilted bit per trial.
  engine::ScenarioSpec is_plan = waterfall();
  engine::restrict_scenario(is_plan, "ebn0_db", "8");
  ASSERT_EQ(is_plan.points.size(), 1u);
  stats::SamplingPolicy& policy = is_plan.points.front().link.options.sampling;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 6.0;
  policy.levels = 4;
  const io::ResultDoc doc = run(is_plan, std::numeric_limits<std::size_t>::max(), 600);
  ASSERT_EQ(doc.points.size(), 1u);
  EXPECT_TRUE(doc.points.front().weighted);
  EXPECT_GT(doc.points.front().errors, 0u);
  io::JsonValue reference = fixture_for(waterfall()).at("checks").items().at(0);
  io::JsonValue expectations = io::JsonValue::object();
  expectations.set("version", io::JsonValue::number(farm::kExpectationsVersion));
  io::JsonValue checks = io::JsonValue::array();
  checks.push_back(std::move(reference));
  expectations.set("checks", std::move(checks));
  expect_verified(doc, expectations, "IS vs plain");
}

TEST(PhysicsOracle, Gen1AcquisitionMatchesItsReference) {
  const engine::ScenarioSpec scenario =
      engine::ScenarioRegistry::global().make("gen1_acquisition");
  expect_verified(run(scenario, 200, 150), fixture_for(scenario), "reference");
}

TEST(PhysicsOracle, Gen1SyncMatchesItsReference) {
  const engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen1_sync");
  expect_verified(run(scenario, 200, 50), fixture_for(scenario), "reference");
}

}  // namespace
}  // namespace uwb
