// Tests for the src/io layer: the hand-rolled JSON model/parser/writer,
// spec (de)serialization (LinkSpec, BerStop, ScenarioSpec), and the sweep
// result documents behind shard merging. The headline contracts:
//
//  * write(parse(write(x))) is byte-identical to write(x) (literal-
//    preserving numbers, ordered objects);
//  * a scenario serialized to JSON, reloaded, and rerun under the same
//    seed produces a byte-identical result file to the registry-driven
//    run, for both generations;
//  * shard result docs merge back into exactly the unsharded doc.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "io/json.h"
#include "io/result_io.h"
#include "io/spec_io.h"
#include "sim/scenario.h"
#include "document_checks.h"

namespace uwb::io {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------------- json ----

TEST(Json, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(
      R"({"a": 1, "b": -2.5e3, "c": "hi\nthere", "d": [1, 2, 3], "e": {"nested": true}, "f": null})");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2500.0);
  EXPECT_EQ(v.at("c").as_string(), "hi\nthere");
  EXPECT_EQ(v.at("d").items().size(), 3u);
  EXPECT_TRUE(v.at("e").at("nested").as_bool());
  EXPECT_TRUE(v.at("f").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectsKeepOrderAndRejectDuplicates) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
  EXPECT_THROW((void)parse_json(R"({"x": 1, "x": 2})"), InvalidArgument);
}

TEST(Json, NumberLiteralsSurviveRoundTrip) {
  // 64-bit seeds exceed double precision; the literal text must survive a
  // parse -> dump cycle untouched (this is what keeps merged shard files
  // byte-identical).
  const std::string doc = R"({"seed": 6840123412451356685, "x": 1e+09, "y": 0.1})";
  const JsonValue v = parse_json(doc);
  EXPECT_EQ(v.at("seed").as_uint64(), 6840123412451356685ULL);
  EXPECT_EQ(v.at("seed").number_text(), "6840123412451356685");
  EXPECT_EQ(dump_json(v), doc);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW((void)parse_json(""), InvalidArgument);
  EXPECT_THROW((void)parse_json("{"), InvalidArgument);
  EXPECT_THROW((void)parse_json("[1, 2,]"), InvalidArgument);
  EXPECT_THROW((void)parse_json("01 garbage"), InvalidArgument);
  EXPECT_THROW((void)parse_json(R"("unterminated)"), InvalidArgument);
  EXPECT_THROW((void)parse_json("{\"a\": 1} trailing"), InvalidArgument);
  EXPECT_THROW((void)parse_json("1."), InvalidArgument);
}

TEST(Json, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(4e9), "4e+09");
  for (double v : {1.0 / 3.0, 6.02214076e23, -0.015625, 1e-300}) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
}

TEST(Json, PrettyDumpParsesBack) {
  JsonValue v = JsonValue::object();
  v.set("name", JsonValue::string("x"));
  JsonValue arr = JsonValue::array();
  JsonValue inner = JsonValue::object();
  inner.set("k", JsonValue::number(uint64_t{7}));
  arr.push_back(std::move(inner));
  v.set("list", std::move(arr));
  const std::string text = dump_json_pretty(v);
  const JsonValue back = parse_json(text);
  EXPECT_EQ(back.at("name").as_string(), "x");
  EXPECT_EQ(back.at("list").items()[0].at("k").as_uint64(), 7u);
}

// ------------------------------------------------------------------ specs ----

TEST(SpecIo, TrialOptionsRoundTripIncludingFec) {
  txrx::TrialOptions options;
  options.cm = 3;
  options.ebn0_db = 12.5;
  options.payload_bits = 123;
  options.genie_timing = true;
  options.interferer = true;
  options.interferer_sir_db = -10.0;
  options.auto_notch = true;
  options.fec = fec::k7_rate_half();

  const txrx::TrialOptions back =
      trial_options_from_json(parse_json(dump_json(to_json(options))));
  EXPECT_EQ(back.cm, 3);
  EXPECT_EQ(back.ebn0_db, 12.5);
  EXPECT_EQ(back.payload_bits, 123u);
  EXPECT_TRUE(back.genie_timing);
  EXPECT_TRUE(back.interferer);
  EXPECT_EQ(back.interferer_sir_db, -10.0);
  EXPECT_TRUE(back.auto_notch);
  ASSERT_TRUE(back.fec.has_value());
  EXPECT_EQ(back.fec->constraint_length, 7);
  EXPECT_EQ(back.fec->generators, fec::k7_rate_half().generators);
}

TEST(SpecIo, ChannelSourceRoundTripAndStrictKeys) {
  txrx::TrialOptions options;
  options.cm = 3;
  options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
  options.channel_source.ensemble_seed = 0xC1A0'0000'0000'BEEFULL;  // 64-bit exact
  options.channel_source.ensemble_count = 64;

  const txrx::TrialOptions back =
      trial_options_from_json(parse_json(dump_json(to_json(options))));
  EXPECT_EQ(back.channel_source, options.channel_source);

  // Fresh is the default for terse documents...
  EXPECT_EQ(trial_options_from_json(parse_json("{}")).channel_source.mode,
            txrx::ChannelSource::Mode::kFresh);
  // ...and typos anywhere in the object fail loudly.
  EXPECT_THROW((void)trial_options_from_json(
                   parse_json(R"({"channel_source": {"ensembleCount": 4}})")),
               InvalidArgument);
  EXPECT_THROW((void)trial_options_from_json(
                   parse_json(R"({"channel_source": {"mode": "ensembel"}})")),
               InvalidArgument);
  // ...and so does an ensemble too large to hold in memory.
  EXPECT_THROW((void)trial_options_from_json(parse_json(
                   R"({"channel_source": {"ensemble_count": 100000000000000}})")),
               InvalidArgument);
}

TEST(SpecIo, LinkSpecRoundTripIsTextStable) {
  // Serialize -> parse -> serialize must reproduce the text exactly, for
  // both generations (this pins every config field's formatting).
  txrx::Gen2Config gen2 = sim::gen2_fast();
  gen2.rake.num_fingers = 16;
  gen2.modulation = phy::Modulation::kPam4;
  const txrx::LinkSpec spec2{gen2, txrx::default_options(txrx::Generation::kGen2)};
  const std::string text2 = dump_json(to_json(spec2));
  EXPECT_EQ(dump_json(to_json(link_spec_from_json(parse_json(text2)))), text2);

  const txrx::LinkSpec spec1{sim::gen1_fast(), txrx::default_options(txrx::Generation::kGen1)};
  const std::string text1 = dump_json(to_json(spec1));
  EXPECT_EQ(dump_json(to_json(link_spec_from_json(parse_json(text1)))), text1);
  EXPECT_EQ(link_spec_from_json(parse_json(text1)).generation(),
            txrx::Generation::kGen1);
}

TEST(SpecIo, UnknownKeysFailLoudly) {
  EXPECT_THROW((void)trial_options_from_json(parse_json(R"({"ebno_db": 10})")),
               InvalidArgument);
  EXPECT_THROW((void)gen2_config_from_json(parse_json(R"({"prf_mhz": 100})")),
               InvalidArgument);
  EXPECT_THROW(
      (void)link_spec_from_json(parse_json(R"({"generation": "gen3", "config": {}})")),
      InvalidArgument);
}

TEST(SpecIo, MissingKeysKeepDefaults) {
  const txrx::Gen2Config config =
      gen2_config_from_json(parse_json(R"({"channel_index": 9})"));
  EXPECT_EQ(config.channel_index, 9);
  EXPECT_EQ(config.prf_hz, txrx::Gen2Config{}.prf_hz);
  EXPECT_EQ(config.sar.bits, txrx::Gen2Config{}.sar.bits);
}

TEST(SpecIo, TerseGen1OptionsKeepGenerationDefaults) {
  // A hand-written gen-1 spec with a sparse options object must fall back
  // to the gen-1 defaults (genie timing, short payload), exactly as if the
  // object were omitted entirely.
  const txrx::LinkSpec spec = link_spec_from_json(parse_json(
      R"({"generation": "gen1", "config": {}, "options": {"ebn0_db": 8}})"));
  EXPECT_EQ(spec.options.ebn0_db, 8.0);
  EXPECT_TRUE(spec.options.genie_timing);
  EXPECT_EQ(spec.options.payload_bits, 32u);

  const txrx::LinkSpec bare =
      link_spec_from_json(parse_json(R"({"generation": "gen1", "config": {}})"));
  EXPECT_TRUE(bare.options.genie_timing);
  EXPECT_EQ(bare.options.payload_bits, 32u);
}

TEST(ResultIo, StopRuleRoundTripsWhole) {
  // The stop rule a result document records reads back whole: budgets up
  // to 2^53 (the largest count a JSON number holds exactly everywhere),
  // the metric and the CI width, each set or not.
  sim::BerStop stop;
  stop.min_errors = 7;
  stop.max_bits = 1234;
  stop.max_trials = sim::BerStop::kMaxBudget;
  stop.metric = "timing_correct";
  stop.target_rel_ci_width = 0.25;
  ResultDoc doc;
  doc.scenario = "s";
  doc.seed = 1;
  doc.stop = stop;
  EXPECT_EQ(parse_result_json(write_result_json(doc)).stop, stop);
  doc.stop.metric.clear();
  doc.stop.target_rel_ci_width = 0.0;
  EXPECT_EQ(parse_result_json(write_result_json(doc)).stop, doc.stop);

  // Past 2^53 a budget is rejected by the check spec readers and CLI
  // flags share.
  for (std::size_t sim::BerStop::*budget :
       {&sim::BerStop::min_errors, &sim::BerStop::max_bits, &sim::BerStop::max_trials}) {
    sim::BerStop over = stop;
    over.*budget = sim::BerStop::kMaxBudget + 1;
    EXPECT_THROW(sim::validate_budgets(over), InvalidArgument);
  }
}

TEST(SpecIo, PayloadBitsAreBounded) {
  // A payload too long for any capture is a bad spec, rejected by the
  // reader and by validate_spec alike -- not an allocation failure mid-run.
  EXPECT_EQ(trial_options_from_json(parse_json(R"({"payload_bits": 4096})")).payload_bits,
            txrx::TrialOptions::kMaxPayloadBits);
  EXPECT_THROW((void)trial_options_from_json(parse_json(R"({"payload_bits": 4097})")),
               InvalidArgument);
  txrx::LinkSpec spec{sim::gen1_fast(), txrx::default_options(txrx::Generation::kGen1)};
  spec.options.payload_bits = txrx::TrialOptions::kMaxPayloadBits;
  EXPECT_NO_THROW(txrx::validate_spec(spec));
  spec.options.payload_bits = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(txrx::validate_spec(spec), InvalidArgument);
}

TEST(SpecIo, SamplingPolicyRoundTripAndStrictKeys) {
  txrx::TrialOptions options;
  options.sampling.mode = stats::SamplingMode::kAutoLadder;
  options.sampling.max_scale = 5.5;
  options.sampling.levels = 3;
  txrx::TrialOptions back =
      trial_options_from_json(parse_json(dump_json(to_json(options))));
  EXPECT_EQ(back.sampling, options.sampling);

  options.sampling.mode = stats::SamplingMode::kNoiseScale;
  options.sampling.scale = 3.25;
  back = trial_options_from_json(parse_json(dump_json(to_json(options))));
  EXPECT_EQ(back.sampling, options.sampling);

  // Plain Monte-Carlo is the terse default and is not serialized.
  EXPECT_FALSE(trial_options_from_json(parse_json("{}")).sampling.active());
  EXPECT_FALSE(trial_options_from_json(parse_json(R"({"sampling": {"mode": "none"}})"))
                   .sampling.active());
  EXPECT_EQ(dump_json(to_json(txrx::TrialOptions{})).find("sampling"),
            std::string::npos);

  // A typo'd policy name or key must fail loudly, not run unweighted.
  EXPECT_THROW((void)trial_options_from_json(
                   parse_json(R"({"sampling": {"mode": "noise_scales"}})")),
               InvalidArgument);
  EXPECT_THROW((void)trial_options_from_json(
                   parse_json(R"({"sampling": {"mode": "noise_scale", "scal": 4}})")),
               InvalidArgument);
}

TEST(SpecIo, TrialKindAndRecordMetricsRoundTrip) {
  txrx::TrialOptions options = txrx::default_options(txrx::Generation::kGen1);
  options.kind = txrx::TrialKind::kAcquisition;
  options.genie_timing = false;
  options.acq_tol_samples = 5;
  options.record_metrics = {txrx::metric_names::kTimingCorrect,
                            txrx::metric_names::kSyncTime};
  const txrx::TrialOptions back =
      trial_options_from_json(parse_json(dump_json(to_json(options))));
  EXPECT_EQ(back.kind, txrx::TrialKind::kAcquisition);
  EXPECT_EQ(back.acq_tol_samples, 5u);
  EXPECT_EQ(back.record_metrics, options.record_metrics);

  // Defaults for terse documents.
  EXPECT_EQ(trial_options_from_json(parse_json("{}")).kind, txrx::TrialKind::kPacket);
  EXPECT_TRUE(trial_options_from_json(parse_json("{}")).record_metrics.empty());
  // A bogus kind fails loudly.
  EXPECT_THROW((void)trial_options_from_json(parse_json(R"({"kind": "acquisiton"})")),
               InvalidArgument);
}

TEST(SpecIo, UnknownMetricNameInSpecFailsLoudly) {
  // Strict like the unknown-key checks: a typo'd metric name in
  // record_metrics must fail at load time, not record empty columns.
  EXPECT_THROW(
      (void)link_spec_from_json(parse_json(
          R"({"generation": "gen1", "config": {},
              "options": {"kind": "acquisition", "genie_timing": false,
                          "record_metrics": ["sync_tyme_s"]}})")),
      InvalidArgument);
  // A real metric of the wrong trial kind is equally unknown: a gen-1
  // *packet* trial never emits sync_time_s.
  EXPECT_THROW(
      (void)link_spec_from_json(parse_json(
          R"({"generation": "gen1", "config": {},
              "options": {"record_metrics": ["sync_time_s"]}})")),
      InvalidArgument);
  // And an acquisition-kind spec on gen-2 is rejected outright.
  EXPECT_THROW((void)link_spec_from_json(parse_json(
                   R"({"generation": "gen2", "config": {},
                       "options": {"kind": "acquisition",
                                   "record_metrics": ["acquired"]}})")),
               InvalidArgument);
  // The same names spelled correctly load fine.
  const txrx::LinkSpec ok = link_spec_from_json(parse_json(
      R"({"generation": "gen1", "config": {},
          "options": {"kind": "acquisition", "genie_timing": false,
                      "record_metrics": ["acquired", "sync_time_s"]}})"));
  EXPECT_EQ(ok.options.record_metrics.size(), 2u);
}

TEST(SpecIo, ScenarioFileRoundTripPreservesTagsAndLabels) {
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen2_cm_grid");
  scenario.points.resize(3);
  save_scenario_file(scenario, "test_results/spec_roundtrip.json");
  const engine::ScenarioSpec back = load_scenario_file("test_results/spec_roundtrip.json");

  EXPECT_EQ(back.name, scenario.name);
  EXPECT_EQ(back.description, scenario.description);
  ASSERT_EQ(back.points.size(), 3u);
  for (std::size_t i = 0; i < back.points.size(); ++i) {
    EXPECT_EQ(back.points[i].label, scenario.points[i].label);
    EXPECT_EQ(back.points[i].tags, scenario.points[i].tags);
    EXPECT_EQ(back.points[i].tag("channel"), scenario.points[i].tag("channel"));
  }
}

TEST(SpecIo, PointsNeedALinkWithAGenerationAndUniqueTags) {
  // Terse specs keep defaults for missing keys, except these two: a point
  // without a link, or a link without a generation, has nothing to run.
  const auto load = [](const std::string& point) {
    return scenario_from_json_text(R"({"name": "s", "points": [)" + point + "]}");
  };
  EXPECT_EQ(load(R"({"link": {"generation": "gen1"}})").points.at(0).link.generation(),
            txrx::Generation::kGen1);
  EXPECT_THROW((void)load(R"({"label": "p"})"), InvalidArgument);
  EXPECT_THROW((void)load(R"({"link": {"config": {}}})"), InvalidArgument);
  // Tags become object keys in the result document, so they must be unique.
  EXPECT_THROW((void)load(R"({"tags": [["a", "1"], ["a", "2"]], "link": {"generation": "gen2"}})"),
               InvalidArgument);
}

TEST(SpecIo, RegistryScenarioDocumentsAreByteStable) {
  // FNV-1a digests of every registry scenario's spec document. perfbench's
  // spec_digest and the farm's plan_digest hash these bytes, so a
  // serializer change that moves one byte fails here first.
  const std::map<std::string, uint64_t> pinned = {
      {"gen1_acquisition", 0x1ed9f5e0b4256d13ULL},
      {"gen1_sync", 0xdb61b35648ef49feULL},
      {"gen1_waterfall", 0xc85db2aa5986b9f8ULL},
      {"gen2_adc_resolution", 0x062e91192acd28fbULL},
      {"gen2_backend_ladder", 0x6f58970e6b91822bULL},
      {"gen2_chanest_precision", 0xbcbad2cfeaef03acULL},
      {"gen2_cm_grid", 0xe6a8841398dbcd05ULL},
      {"gen2_cm_grid_deep", 0x4124839340c66c4aULL},
      {"gen2_interferer_notch", 0x908f02d9bcd4a573ULL},
      {"gen2_mlse_isi", 0xdf785e3823b631cdULL},
      {"gen2_mlse_memory", 0xa22d7a4075290580ULL},
      {"gen2_modulation", 0x4af3c557dda6004fULL},
      {"gen2_pulse_shape", 0x555e9ffbbe3814a6ULL},
      {"gen2_rake_fingers", 0xe46afe03196b8d70ULL},
      {"gen2_spectral_monitor", 0x7c5d1b55ee2fdcf7ULL},
  };
  const engine::ScenarioRegistry& registry = engine::ScenarioRegistry::global();
  EXPECT_EQ(registry.names().size(), pinned.size());
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << "unpinned scenario";
    EXPECT_EQ(farm::fnv1a_digest(scenario_to_json_text(registry.make(name))), it->second);
  }
}

TEST(SpecIo, EveryConfigFieldRoundTripsAChangedValue) {
  test::DocumentShape shape;
  shape.alternates = {{"rrc", "rect"}, {"bpsk", "ppm"}, {"selective", "partial"}};
  const auto write = [](const auto& config) { return to_json(config); };
  test::expect_every_field_round_trips(txrx::Gen1Config{}, write, gen1_config_from_json, shape);
  test::expect_every_field_round_trips(txrx::Gen2Config{}, write, gen2_config_from_json, shape);
}

TEST(SpecIo, NarrowUnsignedFieldsRejectValuesOutOfRange) {
  // 4294967303 = 2^32 + 7: a silent cast would load it as 7.
  EXPECT_THROW((void)trial_options_from_json(
                   parse_json(R"({"fec": {"generators": [4294967303, 5]}})")),
               InvalidArgument);
  EXPECT_EQ(trial_options_from_json(parse_json(R"({"fec": {"generators": [4294967295, 5]}})"))
                .fec->generators.front(),
            4294967295u);
}

// --------------------------------------- reload + rerun == registry run ----

/// Runs \p scenario under a pinned seed/stop and returns the result JSON.
std::string run_to_json(const engine::ScenarioSpec& scenario, const std::string& path) {
  engine::SweepConfig config;
  config.seed = 0x10AD'F11E;
  config.workers = 2;
  config.stop.min_errors = 3;
  config.stop.max_bits = 600;
  config.stop.max_trials = 3;
  engine::JsonSink json(path);
  (void)engine::SweepEngine(config).run(scenario, {&json});
  return slurp(path);
}

TEST(SpecIo, ReloadedScenarioRerunsByteIdenticalGen2) {
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen2_cm_grid");
  scenario.points.resize(2);  // AWGN @ 8 dB: full and mf_only
  const std::string direct = run_to_json(scenario, "test_results/reload_gen2_direct.json");

  save_scenario_file(scenario, "test_results/reload_gen2_spec.json");
  const engine::ScenarioSpec reloaded =
      load_scenario_file("test_results/reload_gen2_spec.json");
  const std::string rerun = run_to_json(reloaded, "test_results/reload_gen2_rerun.json");

  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(direct, rerun);
}

TEST(SpecIo, ReloadedScenarioRerunsByteIdenticalGen1) {
  engine::ScenarioSpec scenario =
      engine::ScenarioRegistry::global().make("gen1_waterfall");
  engine::restrict_scenario(scenario, "ebn0_db", "4,6");
  const std::string direct = run_to_json(scenario, "test_results/reload_gen1_direct.json");

  save_scenario_file(scenario, "test_results/reload_gen1_spec.json");
  const engine::ScenarioSpec reloaded =
      load_scenario_file("test_results/reload_gen1_spec.json");
  const std::string rerun = run_to_json(reloaded, "test_results/reload_gen1_rerun.json");

  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(direct, rerun);
}

// ---------------------------------------------------------------- results ----

TEST(ResultIo, WriteParseWriteIsByteIdentical) {
  ResultDoc doc;
  doc.scenario = "demo";
  doc.seed = 0x5eed'0000'cafe'f00dULL;  // > 2^53: exercises integer fidelity
  doc.stop.min_errors = 10;
  doc.stop.max_bits = 1000;
  doc.stop.max_trials = 50;
  ResultPoint point;
  point.index = 3;
  point.label = "CM3 | 12";
  point.tags = {{"channel", "CM3"}, {"ebn0_db", "12"}};
  point.ber = "0.0123";
  point.ci95 = "1.5e-05";
  point.errors = 12;
  point.bits = 975;
  point.trials = 5;
  doc.points.push_back(point);

  const std::string text = write_result_json(doc);
  const ResultDoc parsed = parse_result_json(text);
  EXPECT_EQ(parsed.scenario, "demo");
  EXPECT_EQ(parsed.seed, doc.seed);
  EXPECT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].tags, point.tags);
  EXPECT_EQ(write_result_json(parsed), text);
}

TEST(ResultIo, MetricsAndStopMetricRoundTripByteIdentical) {
  ResultDoc doc;
  doc.scenario = "acq";
  doc.seed = 7;
  doc.stop.min_errors = 10;
  doc.stop.max_bits = 25;
  doc.stop.max_trials = 25;
  doc.stop.metric = "timing_correct";
  ResultPoint point;
  point.index = 0;
  point.label = "2 | 14";
  point.tags = {{"preamble_reps", "2"}, {"ebn0_db", "14"}};
  point.ber = "0.08";
  point.ci95 = "0.1";
  point.errors = 2;
  point.bits = 25;
  point.trials = 25;
  point.metrics = {{"acquired", 25, "0.96", "0.04"},
                   {"sync_time_s", 24, "6.48e-05", "1.2e-11"}};
  doc.points.push_back(point);

  const std::string text = write_result_json(doc);
  const ResultDoc parsed = parse_result_json(text);
  EXPECT_EQ(parsed.stop.metric, "timing_correct");
  ASSERT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].metrics, point.metrics);
  EXPECT_EQ(write_result_json(parsed), text);
}

TEST(ResultIo, CiFieldsRoundTripByteIdentical) {
  ResultDoc doc;
  doc.scenario = "deep";
  doc.seed = 11;
  ResultPoint plain;
  plain.index = 0;
  plain.label = "AWGN | 12 | plain";
  plain.ber = "1.2e-05";
  plain.ci95 = "4e-06";
  plain.ci_lo = "8.1e-06";
  plain.ci_hi = "1.9e-05";
  plain.ci_method = "clopper_pearson";
  plain.errors = 9;
  plain.bits = 750000;
  plain.trials = 2500;
  ResultPoint is = plain;
  is.index = 1;
  is.label = "AWGN | 12 | is";
  is.weighted = true;
  is.ci_method = "normal_weighted";
  is.ess = "1743.2";
  doc.points = {plain, is};

  const std::string text = write_result_json(doc);
  const ResultDoc parsed = parse_result_json(text);
  ASSERT_EQ(parsed.points.size(), 2u);
  EXPECT_EQ(parsed.points[0].ci_lo, "8.1e-06");
  EXPECT_EQ(parsed.points[0].ci_method, "clopper_pearson");
  EXPECT_FALSE(parsed.points[0].weighted);
  EXPECT_TRUE(parsed.points[1].weighted);
  EXPECT_EQ(parsed.points[1].ess, "1743.2");
  EXPECT_EQ(write_result_json(parsed), text);
}

TEST(ResultIo, PreCiDocumentsRoundTripWithoutInventedFields) {
  // A document written before the CI fields existed must parse and write
  // back byte-identically -- absent fields stay absent.
  const std::string old_doc =
      "{\n  \"scenario\": \"legacy\",\n  \"seed\": 3,\n"
      "  \"stop\": {\"min_errors\": 50, \"max_bits\": 2000000, \"max_trials\": 100000},\n"
      "  \"points\": [\n"
      "    {\"index\": 0, \"label\": \"p0\", \"tags\": {}, \"ber\": 0.01, "
      "\"ci95\": 0.001, \"errors\": 10, \"bits\": 1000, \"trials\": 4}\n"
      "  ]\n}\n";
  const ResultDoc parsed = parse_result_json(old_doc);
  EXPECT_TRUE(parsed.points[0].ci_lo.empty());
  EXPECT_TRUE(parsed.points[0].ci_method.empty());
  EXPECT_EQ(write_result_json(parsed), old_doc);
}

TEST(ResultIo, UnknownKeysAreRejectedAtEveryLevel) {
  // A key the reader does not know must fail the parse -- at the top
  // level, in a point, and in a metric's statistics -- rather than load a
  // document that silently drops it on write-back.
  const std::string point =
      "{\"index\": 0, \"label\": \"p0\", \"tags\": {}, \"ber\": 0.01, \"ci95\": 0.001, "
      "\"errors\": 10, \"bits\": 1000, \"trials\": 4%s, \"metrics\": {\"acquired\": "
      "{\"count\": 4, \"mean\": 1, \"variance\": 0%s}}}";
  const auto doc = [&](const char* top, const char* in_point, const char* in_metric) {
    char body[512];
    std::snprintf(body, sizeof body, point.c_str(), in_point, in_metric);
    return std::string("{\"scenario\": \"s\", \"seed\": 3, \"stop\": {\"min_errors\": 1, "
                       "\"max_bits\": 10, \"max_trials\": 5}") +
           top + ", \"points\": [" + body + "]}";
  };
  EXPECT_NO_THROW((void)parse_result_json(doc("", "", "")));
  EXPECT_THROW((void)parse_result_json(doc(", \"extra_top\": 2", "", "")), InvalidArgument);
  EXPECT_THROW((void)parse_result_json(doc("", ", \"bogus\": 1", "")), InvalidArgument);
  EXPECT_THROW((void)parse_result_json(doc("", "", ", \"skew\": 0")), InvalidArgument);
}

TEST(ResultIo, MergeRejectsStopMetricMismatch) {
  ResultDoc a, b;
  a.scenario = b.scenario = "s";
  a.seed = b.seed = 1;
  a.stop.metric = "timing_correct";
  b.stop.metric = "";
  EXPECT_THROW((void)merge_results({a, b}), InvalidArgument);
  b.stop.metric = "timing_correct";
  EXPECT_EQ(merge_results({a, b}).stop.metric, "timing_correct");
}

TEST(ResultIo, MergeRestoresUnshardedDocument) {
  auto make_point = [](uint64_t index) {
    ResultPoint p;
    p.index = index;
    p.label = "p";
    p.label += std::to_string(index);
    p.ber = "0.5";
    p.ci95 = "0.1";
    p.bits = 100 + index;
    return p;
  };
  ResultDoc full;
  full.scenario = "s";
  full.seed = 42;
  for (uint64_t i = 0; i < 5; ++i) full.points.push_back(make_point(i));

  ResultDoc shard0 = full, shard1 = full;
  shard0.points.clear();
  shard1.points.clear();
  for (uint64_t i = 0; i < 5; ++i) {
    (i % 2 == 0 ? shard0 : shard1).points.push_back(make_point(i));
  }

  const ResultDoc merged = merge_results({shard1, shard0});  // order-insensitive
  EXPECT_EQ(write_result_json(merged), write_result_json(full));
}

TEST(ResultIo, MergeRejectsMismatchedHeadersAndDuplicates) {
  ResultDoc a, b;
  a.scenario = b.scenario = "s";
  a.seed = 1;
  b.seed = 2;
  EXPECT_THROW((void)merge_results({a, b}), InvalidArgument);

  b.seed = 1;
  ResultPoint p;
  p.index = 0;
  a.points.push_back(p);
  b.points.push_back(p);
  EXPECT_THROW((void)merge_results({a, b}), InvalidArgument);
  EXPECT_THROW((void)merge_results({}), InvalidArgument);
}

}  // namespace
}  // namespace uwb::io
