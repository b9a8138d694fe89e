// A seeded mutation fuzzer over every persisted-document reader: the JSON
// parser, spec documents, run manifests, stage tables, farm checkpoints,
// .cir ensembles with their sidecars, result documents and shard merges,
// and verify expectations with their reference fixtures.
//
// Each reader starts from a valid seed document and sees byte flips,
// truncations, dropped keys and values swapped for another JSON type. The
// property, for every input: the reader either loads it or throws
// uwb::Error (never another exception, a crash or a hang), and a loaded
// document written back out is a fixed point -- reading and writing it
// again reproduces it byte for byte. Everything is seeded, so a failure
// replays exactly; the whole suite runs in about a second.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "channel/saleh_valenzuela.h"
#include "common/error.h"
#include "engine/channel_cache.h"
#include "engine/scenario_registry.h"
#include "farm/farm_state.h"
#include "farm/verify.h"
#include "io/cir_io.h"
#include "io/file.h"
#include "io/json.h"
#include "io/result_io.h"
#include "io/spec_io.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "document_checks.h"

namespace uwb {
namespace {

constexpr int kMutationsPerReader = 600;

/// Draws the mutations. The raw engine output is used directly, so the
/// sequence is the same on every platform.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  /// One of the four mutations of \p text (whose parse is \p doc), with a
  /// byte flip stacked on top one time in four.
  std::string mutate(const std::string& text, const io::JsonValue& doc) {
    std::string out;
    switch (below(4)) {
      case 0: out = flip_bytes(text); break;
      case 1: out = text.substr(0, below(text.size())); break;
      case 2: out = io::dump_json_pretty(drop_key(doc)); break;
      default: out = io::dump_json_pretty(swap_type(doc)); break;
    }
    return below(4) == 0 ? flip_bytes(out) : out;
  }

  /// Byte flips and truncations only, for binary files.
  std::string mutate_bytes(const std::string& bytes) {
    return below(3) == 0 ? bytes.substr(0, below(bytes.size())) : flip_bytes(bytes);
  }

 private:
  std::string flip_bytes(std::string text) {
    static const std::string kSyntax = "{}[]:,\"\\-+.0123456789eEntrufalsx \n";
    const std::size_t flips = 1 + below(4);
    for (std::size_t i = 0; i < flips && !text.empty(); ++i) {
      char& c = text[below(text.size())];
      if (below(2) == 0) c = static_cast<char>(c ^ (1 << below(8)));
      else c = kSyntax[below(kSyntax.size())];
    }
    return text;
  }

  io::JsonValue drop_key(const io::JsonValue& doc) {
    std::vector<test::Path> paths;
    test::Path prefix;
    test::member_paths(doc, prefix, paths);
    if (paths.empty()) return doc;
    return test::edited(doc, paths[below(paths.size())], nullptr);
  }

  io::JsonValue swap_type(const io::JsonValue& doc) {
    static const char* const kValues[] = {
        "null",  "true", "false", "0", "-1", "0.5", "1e308", "-1e-308", "4294967303",
        "18446744073709551615", "18446744073709551616", "\"\"", "\"x\"",
        "\"0123456789abcdef\"", "[]", "{}", "[1, \"a\"]", "{\"k\": 1}"};
    std::vector<test::Path> paths;
    test::Path prefix;
    test::member_paths(doc, prefix, paths);
    test::leaf_paths(doc, prefix, paths);  // array elements too
    if (paths.empty()) return doc;
    return test::edited(doc, paths[below(paths.size())],
                        io::parse_json(kValues[below(std::size(kValues))]));
  }

  std::mt19937_64 rng_;
};

/// One reader under test: \p load reads a document and writes back what
/// it loaded; \p rewrite does the same for an already written document
/// (the same function, except where loading also merges).
struct Target {
  std::string seed;
  std::function<std::string(const std::string&)> load;
  std::function<std::string(const std::string&)> rewrite;
};

/// Loads or throws uwb::Error; what loads re-serializes to a fixed point.
void expect_loads_or_rejects(const Target& target, const std::string& input) {
  std::string once;
  try {
    once = target.load(input);
  } catch (const Error&) {
    return;  // rejected: the documented outcome for a malformed document
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-uwb exception: " << e.what() << "\ninput:\n" << input;
    return;
  }
  try {
    EXPECT_EQ(target.rewrite(once), once) << "input:\n" << input;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a loaded document failed to reload: " << e.what() << "\ninput:\n"
                  << input << "\nwritten:\n" << once;
  }
}

void fuzz(const Target& target, std::uint64_t seed) {
  Mutator mutator(seed);
  const io::JsonValue doc = io::parse_json(target.seed);
  ASSERT_EQ(target.rewrite(target.seed), target.seed) << "the seed is not canonical";
  for (int i = 0; i < kMutationsPerReader && !testing::Test::HasFailure(); ++i) {
    expect_loads_or_rejects(target, mutator.mutate(target.seed, doc));
  }
}

Target same_rewrite(std::string seed, std::function<std::string(const std::string&)> load) {
  return Target{std::move(seed), load, load};
}

// ------------------------------------------------------------ seed documents ----

engine::ScenarioSpec small_scenario(const char* name) {
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make(name);
  // The last point of a grid carries the most options (IS sampling on the
  // deep grid); one point keeps every mutation cheap.
  scenario.points.erase(scenario.points.begin(), scenario.points.end() - 1);
  return scenario;
}

obs::RunManifest seed_manifest() {
  obs::RunManifest m;
  m.scenario = "gen2_cm_grid";
  m.seed = 0x5eed'0000'cafe'f00dULL;
  m.workers = 2;
  m.stop.metric = "timing_correct";
  m.stop.target_rel_ci_width = 0.25;
  m.result_path = "out.json";
  m.build = {"g++", "release"};
  m.counters.pool = {{4, 1, 10}, {3, 0, 20}};
  m.counters.trials_executed = 7;
  m.counters.wall_s = 0.5;
  m.stages[obs::Stage::kRxFrontend] = {7, 70'000, 9'000, 11'000, 1'792};
  m.points.push_back({0, "AWGN | 6", 0.25, 7, 700, 3, {}});
  m.points[0].stages[obs::Stage::kRxFrontend] = {7, 70'000, 9'000, 11'000, 1'792};
  return m;
}

farm::FarmState seed_farm_state() {
  farm::FarmState state;
  state.plan_digest = 0x0123456789abcdefULL;
  state.shards.resize(2);
  state.shards[0].index = 0;
  state.shards[0].status = farm::ShardStatus::kDone;
  state.shards[0].digest = 0xfeedfacecafebeefULL;
  state.shards[1].index = 1;
  return state;
}

io::ResultPoint result_point(std::uint64_t index) {
  io::ResultPoint point;
  point.index = index;
  point.label = "CM1 | " + std::to_string(index);
  point.tags = {{"channel", "CM1"}, {"ebn0_db", std::to_string(index)}};
  point.ber = "0.0125";
  point.ci95 = "0.003";
  point.errors = 5;
  point.bits = 400;
  point.trials = 4;
  point.ci_lo = "0.004";
  point.ci_hi = "0.029";
  point.ci_method = "clopper_pearson";
  if (index % 2 == 1) {
    point.weighted = true;
    point.ess = "3.5";
    point.metrics.push_back({"timing_correct", 4, "0.75", "0.25"});
  }
  return point;
}

/// Shard \p shard of a four-point sweep split in two.
io::ResultDoc result_shard(std::uint64_t shard) {
  io::ResultDoc doc;
  doc.scenario = "gen2_cm_grid";
  doc.seed = 0x5eed'0000'cafe'f00dULL;
  doc.stop.metric = "timing_correct";
  for (std::uint64_t i = shard; i < 4; i += 2) doc.points.push_back(result_point(i));
  return doc;
}

std::string rewrite_result(const std::string& text) {
  return io::write_result_json(io::parse_result_json(text));
}

// ------------------------------------------------------------------- readers ----

TEST(Fuzz, JsonParser) {
  const std::string seed = io::dump_json_pretty(obs::manifest_to_json(seed_manifest()));
  fuzz(same_rewrite(seed, [](const std::string& text) {
         return io::dump_json_pretty(io::parse_json(text));
       }),
       1);
}

TEST(Fuzz, SpecDocuments) {
  for (const char* name : {"gen1_waterfall", "gen2_cm_grid_deep"}) {
    SCOPED_TRACE(name);
    fuzz(same_rewrite(io::scenario_to_json_text(small_scenario(name)),
                      [](const std::string& text) {
                        return io::scenario_to_json_text(io::scenario_from_json_text(text));
                      }),
         2);
  }
}

TEST(Fuzz, RunManifest) {
  fuzz(same_rewrite(io::dump_json_pretty(obs::manifest_to_json(seed_manifest())),
                    [](const std::string& text) {
                      return io::dump_json_pretty(
                          obs::manifest_to_json(obs::manifest_from_json(io::parse_json(text))));
                    }),
       3);
}

TEST(Fuzz, StageTable) {
  fuzz(same_rewrite(io::dump_json_pretty(obs::stage_table_to_json(seed_manifest().stages)),
                    [](const std::string& text) {
                      return io::dump_json_pretty(obs::stage_table_to_json(
                          obs::stage_table_from_json(io::parse_json(text))));
                    }),
       4);
}

TEST(Fuzz, FarmCheckpoints) {
  farm::FarmSpec spec;
  spec.scenario = "gen2_cm_grid";
  spec.stop.metric = "timing_correct";
  spec.shard_count = 2;
  fuzz(same_rewrite(io::dump_json_pretty(farm::farm_spec_to_json(spec)),
                    [](const std::string& text) {
                      return io::dump_json_pretty(
                          farm::farm_spec_to_json(farm::farm_spec_from_json(io::parse_json(text))));
                    }),
       5);
  fuzz(same_rewrite(io::dump_json_pretty(farm::farm_state_to_json(seed_farm_state())),
                    [](const std::string& text) {
                      return io::dump_json_pretty(farm::farm_state_to_json(
                          farm::farm_state_from_json(io::parse_json(text))));
                    }),
       6);
}

TEST(Fuzz, ResultDocumentsAndMerges) {
  fuzz(same_rewrite(io::write_result_json(result_shard(0)), rewrite_result), 7);
  // A mutated shard merged with its intact sibling, complete and partial.
  const io::ResultDoc sibling = result_shard(1);
  for (const bool allow_partial : {false, true}) {
    SCOPED_TRACE(allow_partial);
    fuzz(Target{io::write_result_json(result_shard(0)),
                [&](const std::string& text) {
                  return io::write_result_json(
                      io::merge_results({io::parse_result_json(text), sibling}, allow_partial));
                },
                rewrite_result},
         8);
  }
}

TEST(Fuzz, VerifyExpectations) {
  // One small document every check kind has points to judge: the gen-1
  // fixture's labels, and the tags gen2_cm_grid_ci.json filters and groups
  // on. Verifying a mutated expectations file ends in a report or throws
  // uwb::Error.
  io::ResultDoc doc;
  doc.scenario = "gen2_cm_grid";
  doc.seed = 1;
  for (const char* label : {"4", "6", "8", "10"}) {
    io::ResultPoint point = result_point(doc.points.size());
    point.label = label;
    point.tags = {{"ebn0_db", label}, {"backend", "full"}};
    doc.points.push_back(point);
  }
  for (const char* relative :
       {"bench/expectations/gen2_cm_grid_ci.json", "tests/fixtures/oracle/gen1_waterfall.json"}) {
    SCOPED_TRACE(relative);
    const std::string seed = io::read_file(std::string(UWB_SOURCE_DIR) + "/" + relative, "fuzz");
    const io::JsonValue expectations = io::parse_json(seed);
    ASSERT_NO_THROW((void)farm::verify_result(doc, expectations));
    Mutator mutator(10);
    for (int i = 0; i < kMutationsPerReader && !HasFailure(); ++i) {
      const std::string input = mutator.mutate(seed, expectations);
      try {
        (void)farm::verify_result(doc, io::parse_json(input));
      } catch (const Error&) {
        // rejected: the documented outcome for malformed expectations
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-uwb exception: " << e.what() << "\ninput:\n" << input;
      }
    }
  }
}

TEST(Fuzz, CirStoreWithItsSidecar) {
  const std::string dir = "test_results/fuzz_cir";
  const std::string out_dir = "test_results/fuzz_cir_out";
  const engine::ChannelEnsemble ensemble = engine::make_ensemble(channel::cm1(), 0xF022, 2);
  const std::string stem = io::save_ensemble(ensemble, dir);
  const std::string sidecar = io::read_file(stem + ".json", "fuzz");
  const std::string cir = io::read_file(stem + ".cir", "fuzz");

  // Writes one store, loads it, saves what loaded under out_dir and
  // returns those files' bytes.
  const auto load = [&](const std::string& in_dir, const std::string& sidecar_bytes,
                        const std::string& cir_bytes) {
    const std::string in_stem =
        (std::filesystem::path(in_dir) / io::ensemble_stem(ensemble.params, ensemble.key))
            .string();
    io::write_file(in_stem + ".json", sidecar_bytes, "fuzz");
    io::write_file(in_stem + ".cir", cir_bytes, "fuzz");
    const std::string out_stem =
        io::save_ensemble(io::load_ensemble(in_dir, ensemble.params, ensemble.key), out_dir);
    return std::pair{io::read_file(out_stem + ".json", "fuzz"),
                     io::read_file(out_stem + ".cir", "fuzz")};
  };
  ASSERT_EQ(load(dir, sidecar, cir), std::pair(sidecar, cir));

  Mutator mutator(9);
  const io::JsonValue sidecar_doc = io::parse_json(sidecar);
  for (int i = 0; i < kMutationsPerReader && !HasFailure(); ++i) {
    const bool binary = mutator.below(2) == 0;
    const std::string bad_sidecar = binary ? sidecar : mutator.mutate(sidecar, sidecar_doc);
    const std::string bad_cir = binary ? mutator.mutate_bytes(cir) : cir;
    std::pair<std::string, std::string> once;
    try {
      once = load(dir, bad_sidecar, bad_cir);
    } catch (const Error&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-uwb exception: " << e.what() << "\nsidecar:\n" << bad_sidecar;
      continue;
    }
    EXPECT_EQ(load("test_results/fuzz_cir_again", once.first, once.second), once)
        << "sidecar:\n" << bad_sidecar;
  }
}

}  // namespace
}  // namespace uwb
