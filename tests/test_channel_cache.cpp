// Tests for the channel-ensemble subsystem: deterministic generation and
// the fingerprint scheme, Saleh-Valenzuela ensemble statistics per CM
// profile, the thread-safe cache with draw accounting, the binary store
// round trip, and byte-identical ensemble-mode sweeps across worker counts
// and shards.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "engine/channel_cache.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "io/cir_io.h"
#include "sim/scenario.h"
#include "txrx/link.h"
#include "document_checks.h"

namespace uwb::engine {
namespace {

void expect_ensembles_identical(const ChannelEnsemble& a, const ChannelEnsemble& b) {
  ASSERT_EQ(a.key, b.key);
  ASSERT_EQ(a.realizations.size(), b.realizations.size());
  for (std::size_t i = 0; i < a.realizations.size(); ++i) {
    SCOPED_TRACE("realization " + std::to_string(i));
    const auto& ta = a.realizations[i].taps();
    const auto& tb = b.realizations[i].taps();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t t = 0; t < ta.size(); ++t) {
      // Bit-exact, not approximately equal: the determinism contract.
      EXPECT_EQ(ta[t].delay_s, tb[t].delay_s);
      EXPECT_EQ(ta[t].gain, tb[t].gain);
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------- fingerprint ----

TEST(SvFingerprint, SeparatesProfilesAndConventions) {
  const uint64_t cm1 = sv_fingerprint(channel::cm1());
  const uint64_t cm3 = sv_fingerprint(channel::cm3());
  EXPECT_NE(cm1, cm3);

  // The gen-1 real-polarity variant of a profile keys a distinct ensemble.
  channel::SvParams real_cm3 = channel::cm3();
  real_cm3.complex_phases = false;
  EXPECT_NE(sv_fingerprint(real_cm3), cm3);

  // The cosmetic name is excluded: renaming must not invalidate a store.
  channel::SvParams renamed = channel::cm3();
  renamed.name = "CM3_renamed";
  EXPECT_EQ(sv_fingerprint(renamed), cm3);

  // Any statistical field participates.
  channel::SvParams tweaked = channel::cm3();
  tweaked.ray_decay_s *= 1.0 + 1e-12;
  EXPECT_NE(sv_fingerprint(tweaked), cm3);
}

// -------------------------------------------------------- make_ensemble ----

TEST(MakeEnsemble, SameKeyIsBitIdentical) {
  const ChannelEnsemble a = make_ensemble(channel::cm2(), 0xE45, 8);
  const ChannelEnsemble b = make_ensemble(channel::cm2(), 0xE45, 8);
  expect_ensembles_identical(a, b);
  // ...and a different seed or count is a different ensemble.
  EXPECT_NE(make_ensemble(channel::cm2(), 0xE46, 8).realizations[0].taps()[0].gain,
            a.realizations[0].taps()[0].gain);
}

TEST(MakeEnsemble, RealizationPrefixIsCountIndependent) {
  // Realization i is a pure function of (params, seed, i) -- growing an
  // ensemble must not reshuffle the prefix (the fork(i) contract).
  const ChannelEnsemble small = make_ensemble(channel::cm1(), 7, 4);
  ChannelEnsemble large = make_ensemble(channel::cm1(), 7, 12);
  large.realizations.resize(4);
  large.key = small.key;
  expect_ensembles_identical(small, large);
}

TEST(MakeEnsemble, IndexWrapsModuloCount) {
  const ChannelEnsemble e = make_ensemble(channel::cm1(), 3, 5);
  EXPECT_EQ(&e.realization_for_trial(0), &e.realization_for_trial(5));
  EXPECT_EQ(&e.realization_for_trial(7), &e.realizations[2]);
  EXPECT_THROW((void)make_ensemble(channel::cm1(), 3, 0), InvalidArgument);
}

TEST(MakeEnsemble, MeanRmsDelaySpreadMatchesEachCmProfile) {
  // Ensemble statistics must reproduce the model: mean rms delay spread
  // over a 60-realization ensemble within each profile's expected band
  // (CM1 ~5 ns ... CM4 ~25 ns, the paper's "order of 20 ns" regime).
  struct Band {
    int cm;
    double lo_s, hi_s;
  };
  const Band bands[] = {
      {1, 2e-9, 10e-9}, {2, 4e-9, 14e-9}, {3, 8e-9, 22e-9}, {4, 14e-9, 40e-9}};
  double previous_mean = 0.0;
  for (const Band& band : bands) {
    SCOPED_TRACE("CM" + std::to_string(band.cm));
    const ChannelEnsemble ensemble =
        make_ensemble(channel::cm_by_index(band.cm), 0x5712AD + band.cm, 60);
    double mean = 0.0;
    for (const channel::Cir& cir : ensemble.realizations) mean += cir.rms_delay_spread();
    mean /= static_cast<double>(ensemble.realizations.size());
    EXPECT_GT(mean, band.lo_s);
    EXPECT_LT(mean, band.hi_s);
    EXPECT_GT(mean, previous_mean);  // CM1 < CM2 < CM3 < CM4
    previous_mean = mean;
  }
}

// --------------------------------------------------------- ChannelCache ----

TEST(ChannelCache, DedupsByKeyAndCountsDraws) {
  ChannelCache cache;
  const auto a = cache.get(channel::cm3(), 11, 6);
  const auto b = cache.get(channel::cm3(), 11, 6);
  EXPECT_EQ(a.get(), b.get());  // one shared ensemble, not a copy

  const auto c = cache.get(channel::cm3(), 12, 6);
  EXPECT_NE(a.get(), c.get());

  const ChannelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.generated, 2u);
  EXPECT_EQ(stats.disk_loads, 0u);
  EXPECT_EQ(stats.sv_draws, 12u);  // 6 per generated ensemble, 0 for the hit
}

// --------------------------------------------------------- binary store ----

TEST(CirStore, RoundTripsBitExactAndRewritesIdentically) {
  const std::string dir = "test_results/channels";
  std::filesystem::remove_all(dir);
  const ChannelEnsemble ensemble = make_ensemble(channel::cm4(), 0xD15C, 5);

  const std::string stem = io::save_ensemble(ensemble, dir);
  ASSERT_TRUE(io::ensemble_exists(dir, ensemble.params, ensemble.key));
  const ChannelEnsemble loaded = io::load_ensemble(dir, ensemble.params, ensemble.key);
  expect_ensembles_identical(ensemble, loaded);

  // Deterministic content + formatting: rewriting produces the same bytes.
  const std::string cir_bytes = slurp(stem + ".cir");
  const std::string sidecar_bytes = slurp(stem + ".json");
  ASSERT_FALSE(cir_bytes.empty());
  (void)io::save_ensemble(ensemble, dir);
  EXPECT_EQ(slurp(stem + ".cir"), cir_bytes);
  EXPECT_EQ(slurp(stem + ".json"), sidecar_bytes);
}

TEST(CirStore, SidecarBytesArePinned) {
  // The sidecar depends only on the key and the S-V parameters, so this
  // pin holds while the realizations' physics moves. Pinned from the
  // hand-written serializer, before the field lists.
  const ChannelEnsemble ensemble = make_ensemble(channel::cm1(), 0xBAD, 3);
  const std::string bytes = io::dump_json_pretty(io::ensemble_sidecar_json(ensemble)) + "\n";
  EXPECT_EQ(farm::fnv1a_digest(bytes), 0xe1a525d35ffb5646ULL);
}

TEST(CirStore, EverySidecarFieldRoundTripsAndMissingKeysThrow) {
  const ChannelEnsemble ensemble = make_ensemble(channel::cm1(), 0xBAD, 3);
  test::DocumentShape shape;
  shape.fixed = {"/format", "/version", "/realizations_file"};
  // realizations_file names the stem the key and parameters give.
  shape.rederive = [](const io::JsonValue& doc) {
    const std::string file = doc.at("sv_params").at("name").as_string() + "_" +
                             doc.at("fingerprint").as_string() + "_s" +
                             doc.at("seed").number_text() + "_n" +
                             doc.at("count").number_text() + ".cir";
    return test::edited(doc, {"realizations_file"}, io::JsonValue::string(file));
  };
  test::expect_every_field_round_trips(ensemble, io::ensemble_sidecar_json,
                                       io::ensemble_sidecar_from_json, shape);
  test::expect_missing_keys_throw_unless_optional(ensemble, io::ensemble_sidecar_json,
                                                  io::ensemble_sidecar_from_json, shape);
}

TEST(CirStore, CacheServesFromDiskWithoutDrawing) {
  const std::string dir = "test_results/channels_disk";
  std::filesystem::remove_all(dir);
  const ChannelEnsemble ensemble = make_ensemble(channel::cm2(), 0xFEED, 4);
  (void)io::save_ensemble(ensemble, dir);

  ChannelCache cache;
  cache.set_directory(dir);
  const auto loaded = cache.get(channel::cm2(), 0xFEED, 4);
  expect_ensembles_identical(ensemble, *loaded);
  EXPECT_EQ(cache.stats().disk_loads, 1u);
  EXPECT_EQ(cache.stats().sv_draws, 0u);  // no generation happened

  // A key not in the store falls back to generation.
  (void)cache.get(channel::cm2(), 0xFEED + 1, 4);
  EXPECT_EQ(cache.stats().generated, 1u);
}

TEST(CirStore, RejectsTamperedSidecarAndTruncatedBody) {
  const std::string dir = "test_results/channels_bad";
  std::filesystem::remove_all(dir);
  const ChannelEnsemble ensemble = make_ensemble(channel::cm1(), 0xBAD, 3);
  const std::string stem = io::save_ensemble(ensemble, dir);

  // Unknown sidecar key: loud.
  std::string sidecar = slurp(stem + ".json");
  {
    std::ofstream out(stem + ".json", std::ios::binary | std::ios::trunc);
    out << sidecar.substr(0, sidecar.rfind('}')) << ", \"extra\": 1}\n";
  }
  EXPECT_THROW((void)io::load_ensemble(dir, ensemble.params, ensemble.key), InvalidArgument);
  {
    std::ofstream out(stem + ".json", std::ios::binary | std::ios::trunc);
    out << sidecar;
  }

  // Non-hex fingerprint: loud (InvalidArgument, not std::invalid_argument).
  {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(ensemble.key.fingerprint));
    std::string corrupt = sidecar;
    corrupt.replace(corrupt.find(hex), 16, "not-a-fingerprint");
    std::ofstream out(stem + ".json", std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  EXPECT_THROW((void)io::load_ensemble(dir, ensemble.params, ensemble.key), InvalidArgument);
  {
    std::ofstream out(stem + ".json", std::ios::binary | std::ios::trunc);
    out << sidecar;
  }

  // Truncated realizations: loud.
  const std::string cir_bytes = slurp(stem + ".cir");
  {
    std::ofstream out(stem + ".cir", std::ios::binary | std::ios::trunc);
    out << cir_bytes.substr(0, cir_bytes.size() - 7);
  }
  EXPECT_THROW((void)io::load_ensemble(dir, ensemble.params, ensemble.key), InvalidArgument);

  // A flipped tap-count word: rejected as truncated, not a huge allocation.
  {
    std::string corrupt = cir_bytes;
    // First tap count sits right after the 8-byte magic + 24-byte header.
    corrupt[32] = '\xff';
    corrupt[39] = '\x7f';
    std::ofstream out(stem + ".cir", std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  EXPECT_THROW((void)io::load_ensemble(dir, ensemble.params, ensemble.key), InvalidArgument);
}

// -------------------------------------------------- ensemble-mode trials ----

TEST(EnsembleTrials, LinkDemandsResolvedRealization) {
  txrx::LinkSpec spec{sim::gen2_fast(), txrx::default_options(txrx::Generation::kGen2)};
  spec.options.cm = 2;
  spec.options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
  spec.options.channel_source.ensemble_count = 4;
  const auto link = txrx::make_link(spec, 1);

  Rng rng(2);
  // No TrialContext realization: loud (silently drawing fresh would run a
  // different experiment than the spec describes).
  EXPECT_THROW((void)link->run_packet(spec.options, rng), InvalidArgument);

  const ChannelEnsemble ensemble = make_ensemble(
      channel::cm2(), spec.options.channel_source.ensemble_seed, 4);
  txrx::TrialContext context;
  context.channel = &ensemble.realization_for_trial(0);
  const sim::TrialOutcome trial = link->run_packet(spec.options, rng, context);
  EXPECT_GT(trial.bits, 0u);

  // The inverse mismatch is equally loud: a resolved realization alongside
  // fresh-mode options is a half-configured experiment, not a fallback.
  txrx::TrialOptions fresh = spec.options;
  fresh.channel_source = txrx::ChannelSource{};
  EXPECT_THROW((void)link->run_packet(fresh, rng, context), InvalidArgument);
}

TEST(EnsembleTrials, ZeroCountEnsembleSpecIsRejected) {
  txrx::LinkSpec spec{sim::gen2_fast(), txrx::default_options(txrx::Generation::kGen2)};
  spec.options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
  spec.options.channel_source.ensemble_count = 0;
  EXPECT_THROW(txrx::validate_spec(spec), InvalidArgument);
}

TEST(EnsembleTrials, OversizedEnsembleSpecIsRejected) {
  // An ensemble is held in memory whole: a count past the documented
  // maximum must fail validation, not the allocator mid-run.
  txrx::LinkSpec spec{sim::gen2_fast(), txrx::default_options(txrx::Generation::kGen2)};
  spec.options.cm = 1;
  spec.options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
  spec.options.channel_source.ensemble_count = txrx::ChannelSource::kMaxEnsembleCount;
  EXPECT_NO_THROW(txrx::validate_spec(spec));
  spec.options.channel_source.ensemble_count = txrx::ChannelSource::kMaxEnsembleCount + 1;
  EXPECT_THROW(txrx::validate_spec(spec), InvalidArgument);
}

// ------------------------------------------------- ensemble-mode sweeps ----

/// A small two-point CM1 scenario in ensemble mode (one channel group
/// across two Eb/N0 points).
ScenarioSpec ensemble_scenario(std::size_t count) {
  txrx::TrialOptions options;
  options.payload_bits = 64;
  options.genie_timing = true;
  options.cm = 1;
  options.channel_source.mode = txrx::ChannelSource::Mode::kEnsemble;
  options.channel_source.ensemble_count = count;
  Gen2ScenarioBuilder builder("ensemble_tiny", sim::gen2_fast(), options);
  builder.ebn0_grid({6.0, 10.0});
  return builder.build();
}

sim::BerStop tiny_stop() {
  sim::BerStop stop;
  stop.min_errors = 8;
  stop.max_bits = 1500;
  stop.max_trials = 25;
  return stop;
}

TEST(EnsembleSweep, ByteIdenticalAcrossWorkerCountsAndOneEnsemblePerGroup) {
  const ScenarioSpec scenario = ensemble_scenario(4);

  std::string bytes[2];
  const std::size_t worker_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ChannelCache cache;
    SweepConfig config;
    config.seed = 0xE45E;
    config.workers = worker_counts[i];
    config.stop = tiny_stop();
    config.channel_cache = &cache;
    const std::string path =
        "test_results/ensemble_w" + std::to_string(worker_counts[i]) + ".json";
    JsonSink json(path);
    (void)SweepEngine(config).run(scenario, {&json});
    bytes[i] = slurp(path);

    // Both Eb/N0 points share the CM1 group's single 4-draw ensemble.
    EXPECT_EQ(cache.stats().generated, 1u);
    EXPECT_EQ(cache.stats().sv_draws, 4u);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(EnsembleSweep, ShardsReproduceTheUnshardedPoints) {
  const ScenarioSpec scenario = ensemble_scenario(3);
  SweepConfig base;
  base.seed = 0x51ADE;
  base.workers = 2;
  base.stop = tiny_stop();

  ChannelCache full_cache;
  base.channel_cache = &full_cache;
  const SweepResult full = SweepEngine(base).run(scenario);
  ASSERT_EQ(full.records.size(), 2u);

  for (std::size_t shard = 0; shard < 2; ++shard) {
    ChannelCache shard_cache;  // a shard resolves its own ensemble copy...
    SweepConfig config = base;
    config.channel_cache = &shard_cache;
    config.shard_index = shard;
    config.shard_count = 2;
    const SweepResult part = SweepEngine(config).run(scenario);
    ASSERT_EQ(part.records.size(), 1u);
    EXPECT_EQ(part.records[0].index, full.records[shard].index);
    // ...and still lands on the unsharded numbers bit for bit.
    EXPECT_EQ(part.records[0].ber.ber, full.records[shard].ber.ber);
    EXPECT_EQ(part.records[0].ber.errors, full.records[shard].ber.errors);
    EXPECT_EQ(part.records[0].ber.bits, full.records[shard].ber.bits);
    EXPECT_EQ(part.records[0].ber.trials, full.records[shard].ber.trials);
  }
}

TEST(EnsembleSweep, DiskBackedRunMatchesInMemoryRun) {
  const std::string dir = "test_results/channels_sweep";
  std::filesystem::remove_all(dir);
  const ScenarioSpec scenario = ensemble_scenario(4);

  // Precompute the group's ensemble the way `uwb_sweep precompute` does.
  const channel::SvParams params = txrx::ensemble_sv_params(1, txrx::Generation::kGen2);
  const txrx::ChannelSource& source = scenario.points[0].link.options.channel_source;
  (void)io::save_ensemble(make_ensemble(params, source.ensemble_seed, 4), dir);

  std::string bytes[2];
  for (int pass = 0; pass < 2; ++pass) {
    ChannelCache cache;
    if (pass == 1) cache.set_directory(dir);
    SweepConfig config;
    config.seed = 0xD15C0;
    config.workers = 2;
    config.stop = tiny_stop();
    config.channel_cache = &cache;
    const std::string path = "test_results/ensemble_disk_" + std::to_string(pass) + ".json";
    JsonSink json(path);
    (void)SweepEngine(config).run(scenario, {&json});
    bytes[pass] = slurp(path);
    EXPECT_EQ(cache.stats().disk_loads, pass == 1 ? 1u : 0u);
    EXPECT_EQ(cache.stats().sv_draws, pass == 1 ? 0u : 4u);
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(EnsembleSweep, FreshAndEnsembleModesDiffer) {
  // Sharing channels is a *different* (deliberate) experiment: the same
  // seed in fresh mode must not reproduce ensemble-mode numbers, otherwise
  // the ensemble plumbing is silently inert.
  ScenarioSpec ensemble = ensemble_scenario(2);
  ScenarioSpec fresh = ensemble;
  for (PointSpec& point : fresh.points) {
    point.link.options.channel_source = txrx::ChannelSource{};
  }
  SweepConfig config;
  config.seed = 0xD1FF;
  config.workers = 2;
  config.stop = tiny_stop();
  ChannelCache cache;
  config.channel_cache = &cache;
  const SweepResult a = SweepEngine(config).run(ensemble);
  const SweepResult b = SweepEngine(config).run(fresh);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    any_difference = any_difference || a.records[i].ber.errors != b.records[i].ber.errors ||
                     a.records[i].ber.bits != b.records[i].ber.bits;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace uwb::engine
