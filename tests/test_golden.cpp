// Golden-digest regression net over the scenario registry: every builtin
// scenario is run under a fixed tiny budget and fixed seed, and the byte
// stream of its JSON result document is pinned as an FNV-1a digest. Any
// change to scenario defaults, trial randomness, estimator accounting, or
// result serialization shows up here as a digest mismatch -- cheap to
// re-pin when intentional (the failure message prints the new digest),
// loud when accidental. This complements the statistical tests, which by
// design tolerate exactly the kind of small drift this net catches.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"

namespace uwb {
namespace {

/// The pinned digests. Regenerate by running this test: each mismatch
/// (or unpinned scenario) prints the "{name, 0x...}" line to paste here.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"gen1_acquisition", 0xaccdc93331fdad58ULL},
      {"gen1_sync", 0xac70559d82b1baf3ULL},
      {"gen1_waterfall", 0xb741cd69f099beecULL},
      {"gen2_adc_resolution", 0x40faaba8624dfa30ULL},
      {"gen2_backend_ladder", 0xbed3ba9865c46b5ULL},
      {"gen2_chanest_precision", 0x13a3e1287a9f2286ULL},
      {"gen2_cm_grid", 0xc288267e8d2a3140ULL},
      {"gen2_cm_grid_deep", 0x4ed465a06d4fd569ULL},
      {"gen2_interferer_notch", 0x623d20dcc08fb2f6ULL},
      {"gen2_mlse_isi", 0xbfa3f7f65343e9f6ULL},
      {"gen2_mlse_memory", 0x2a7027faed740270ULL},
      {"gen2_modulation", 0x9bccab44525b6e58ULL},
      {"gen2_pulse_shape", 0xb183c906fc05984cULL},
      {"gen2_rake_fingers", 0x6bfe21b21d54f259ULL},
      {"gen2_spectral_monitor", 0x39f231253ba15284ULL},
  };
  return digests;
}

std::string run_scenario_json(const std::string& name) {
  const std::string path = ::testing::TempDir() + "golden_" + name + ".json";
  engine::SweepConfig config;
  config.seed = 0x601D;
  config.workers = 2;  // parallel commit is deterministic; exercise it
  config.stop.min_errors = 1;
  config.stop.max_bits = 100'000;
  config.stop.max_trials = 4;
  engine::SweepEngine engine(config);
  engine::JsonSink sink(path);
  (void)engine.run(engine::ScenarioRegistry::global().make(name), {&sink});
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  std::remove((path + ".run.json").c_str());
  return bytes.str();
}

TEST(GoldenScenarios, EveryBuiltinScenarioIsPinned) {
  // A new scenario must come with a pinned digest; a removed one must
  // drop its pin. Keeps the net total.
  const auto names = engine::ScenarioRegistry::global().names();
  EXPECT_EQ(names.size(), pinned_digests().size());
  for (const auto& name : names) {
    EXPECT_TRUE(pinned_digests().count(name))
        << "unpinned scenario " << name << " -- run the digest test to get its pin";
  }
}

class GoldenScenarioDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioDigest, TinyBudgetResultDocIsByteStable) {
  const std::string name = GetParam();
  const std::string doc = run_scenario_json(name);
  ASSERT_FALSE(doc.empty()) << name << " produced no result document";
  const std::uint64_t digest = farm::fnv1a_digest(doc);
  const auto it = pinned_digests().find(name);
  ASSERT_NE(it, pinned_digests().end())
      << "unpinned scenario " << name << " -- pin as:\n"
      << "      {\"" << name << "\", 0x" << std::hex << digest << "ULL},";
  EXPECT_EQ(digest, it->second)
      << "result bytes changed for " << name << " -- if intentional, re-pin as:\n"
      << "      {\"" << name << "\", 0x" << std::hex << digest << "ULL},";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenScenarioDigest,
    ::testing::ValuesIn(engine::ScenarioRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace uwb
