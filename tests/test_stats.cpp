// Rare-event statistics subsystem: exact binomial intervals, the
// importance-sampling policy and its likelihood weights, the weighted BER
// accumulator, adaptive allocation policy, and the estimator-level
// validation properties (closed-form BPSK BER inside the intervals, the
// weighted estimator agreeing with plain Monte-Carlo and with the closed
// form, parallel determinism of weighted points).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "engine/scenario_registry.h"
#include "engine/sweep_engine.h"
#include "measure_trials.h"
#include "sim/ber_simulator.h"
#include "stats/adaptive.h"
#include "stats/binomial_ci.h"
#include "stats/sampling.h"
#include "stats/weighted.h"

namespace uwb {
namespace {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

// ------------------------------------------------------ binomial_ci ----

TEST(BinomialCi, NormalQuantileKnownValues) {
  EXPECT_NEAR(stats::normal_quantile(0.975), 1.959963985, 1e-7);
  EXPECT_NEAR(stats::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(stats::normal_quantile(0.9), 1.281551566, 1e-7);
  EXPECT_NEAR(stats::normal_quantile(0.025), -1.959963985, 1e-7);
}

TEST(BinomialCi, ClopperPearsonZeroErrors) {
  // k = 0: lo = 0 and hi = 1 - alpha/2 ^ (1/n) exactly.
  const stats::Interval ci = stats::clopper_pearson(0, 10);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_NEAR(ci.hi, 1.0 - std::pow(0.025, 0.1), 1e-9);
}

TEST(BinomialCi, ClopperPearsonAllErrors) {
  const stats::Interval ci = stats::clopper_pearson(10, 10);
  EXPECT_NEAR(ci.lo, std::pow(0.025, 0.1), 1e-9);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
}

TEST(BinomialCi, IntervalsContainPointEstimate) {
  for (const auto& [k, n] : {std::pair<std::size_t, std::size_t>{1, 50},
                             {7, 100},
                             {499, 1000},
                             {3, 7}}) {
    const double p = static_cast<double>(k) / static_cast<double>(n);
    for (const auto method :
         {stats::CiMethod::kWilson, stats::CiMethod::kClopperPearson}) {
      const stats::Interval ci = stats::binomial_interval(method, k, n);
      EXPECT_LE(ci.lo, p) << to_string(method) << " k=" << k << " n=" << n;
      EXPECT_GE(ci.hi, p) << to_string(method) << " k=" << k << " n=" << n;
      EXPECT_GE(ci.lo, 0.0);
      EXPECT_LE(ci.hi, 1.0);
    }
  }
}

TEST(BinomialCi, ClopperPearsonIsConservativeVsWilson) {
  // The exact interval is wider than the score interval on small counts --
  // the regime the stop rules and result docs care about.
  for (const auto& [k, n] :
       {std::pair<std::size_t, std::size_t>{0, 20}, {1, 30}, {2, 100}, {5, 200}}) {
    const stats::Interval cp = stats::clopper_pearson(k, n);
    const stats::Interval wi = stats::wilson(k, n);
    EXPECT_GE(cp.hi - cp.lo, wi.hi - wi.lo) << "k=" << k << " n=" << n;
  }
}

TEST(BinomialCi, MethodNamesRoundTripAndReject) {
  EXPECT_EQ(stats::ci_method_from_name("wilson"), stats::CiMethod::kWilson);
  EXPECT_EQ(stats::ci_method_from_name("clopper_pearson"),
            stats::CiMethod::kClopperPearson);
  EXPECT_EQ(stats::ci_method_from_name("normal_weighted"),
            stats::CiMethod::kNormalWeighted);
  EXPECT_THROW((void)stats::ci_method_from_name("exact"), InvalidArgument);
  EXPECT_THROW(
      (void)stats::binomial_interval(stats::CiMethod::kNormalWeighted, 1, 10),
      InvalidArgument);
}

// --------------------------------------------------------- sampling ----

TEST(Sampling, LadderGeometry) {
  stats::SamplingPolicy policy;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 8.0;
  policy.levels = 4;
  const std::vector<double> ladder = stats::sampling_ladder(policy);
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_DOUBLE_EQ(ladder.front(), 1.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 8.0);
  for (std::size_t k = 1; k < ladder.size(); ++k) {
    EXPECT_NEAR(ladder[k] / ladder[k - 1], 2.0, 1e-12);  // geometric ratio
  }
  // Trial assignment cycles the ladder as a pure function of the index.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(stats::trial_noise_scale(policy, i), ladder[i % 4]);
  }
}

TEST(Sampling, PolicyValidation) {
  stats::SamplingPolicy bad;
  bad.mode = stats::SamplingMode::kNoiseScale;
  bad.scale = 0.5;
  EXPECT_THROW(stats::validate(bad), InvalidArgument);
  bad.mode = stats::SamplingMode::kAutoLadder;
  bad.levels = 0;
  EXPECT_THROW(stats::validate(bad), InvalidArgument);
}

TEST(Sampling, SingleRungMixtureReducesToTiltWeight) {
  for (const double z : {-3.0, -0.7, 0.0, 1.2, 4.5}) {
    EXPECT_NEAR(stats::mixture_log_weight(z, 0.5, {3.0}),
                stats::tilt_log_weight(z, 0.5, 3.0), 1e-12);
  }
}

TEST(Sampling, MixtureWeightBoundedByRungCount) {
  // With the 1.0 rung in the mixture, w = f / ((1/K) sum g_k) <= K.
  const std::vector<double> ladder = {1.0, 1.817, 3.302, 6.0};
  for (double z = -8.0; z <= 8.0; z += 0.05) {
    EXPECT_LE(stats::mixture_log_weight(z, 1.0, ladder),
              std::log(static_cast<double>(ladder.size())) + 1e-12);
  }
}

TEST(Sampling, MixtureWeightIntegratesToOne) {
  // (1/K) sum_k E_{g_k}[w] = 1 exactly: quadrature over the rung mixture.
  const std::vector<double> ladder = {1.0, 2.0, 4.0};
  const double sigma2 = 0.7;
  const double sigma = std::sqrt(sigma2);
  double total = 0.0;
  const double dz = 1e-3;
  for (double z = -40.0 * sigma; z <= 40.0 * sigma; z += dz) {
    double mix = 0.0;
    for (const double s : ladder) {
      const double sd = s * sigma;
      mix += std::exp(-z * z / (2.0 * sd * sd)) / (sd * std::sqrt(2.0 * M_PI));
    }
    mix /= static_cast<double>(ladder.size());
    total += mix * std::exp(stats::mixture_log_weight(z, sigma2, ladder)) * dz;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

// --------------------------------------------------------- weighted ----

TEST(WeightedBer, PlainWeightsMatchBinomialMean) {
  stats::WeightedBer acc;
  acc.add(1.0, 2, 100);
  acc.add(1.0, 0, 100);
  acc.add(1.0, 1, 100);
  EXPECT_DOUBLE_EQ(acc.ber(), 3.0 / 300.0);
  EXPECT_DOUBLE_EQ(acc.ess(), 3.0);  // equal weights: ESS = trial count
  const stats::Interval ci = acc.interval();
  EXPECT_LE(ci.lo, acc.ber());
  EXPECT_GE(ci.hi, acc.ber());
}

TEST(WeightedBer, WeightsScaleErrorsNotBits) {
  stats::WeightedBer acc;
  acc.add(0.25, 1, 1);
  acc.add(0.25, 1, 1);
  acc.add(1.0, 0, 1);
  acc.add(1.0, 0, 1);
  EXPECT_DOUBLE_EQ(acc.ber(), 0.5 / 4.0);
  EXPECT_EQ(acc.raw_errors, 2u);
  // Kish ESS: (sum w)^2 / sum w^2 = 2.5^2 / 2.125.
  EXPECT_NEAR(acc.ess(), 2.5 * 2.5 / 2.125, 1e-12);
  EXPECT_LT(acc.ess(), 4.0);
}

TEST(WeightedBer, DegenerateInputsGiveVacuousInterval) {
  stats::WeightedBer acc;
  const stats::Interval empty = acc.interval();
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
}

// --------------------------------------------------------- adaptive ----

TEST(Adaptive, PicksWidestRelativeInterval) {
  std::vector<stats::AllocPoint> points(3);
  points[0] = {1e-3, 1e-4, 100, false};   // rel width 0.1
  points[1] = {1e-5, 8e-6, 100, false};   // rel width 0.8
  points[2] = {1e-4, 5e-5, 100, false};   // rel width 0.5
  EXPECT_EQ(stats::pick_widest(points), 1);
  points[1].saturated = true;
  EXPECT_EQ(stats::pick_widest(points), 2);
}

TEST(Adaptive, ZeroBerPointClaimsBudgetFirst) {
  std::vector<stats::AllocPoint> points(2);
  points[0] = {1e-4, 9e-5, 10, false};  // wide, but measured
  points[1] = {0.0, 0.0, 10, false};    // nothing measured yet
  EXPECT_EQ(stats::pick_widest(points), 1);
}

TEST(Adaptive, SaturatedEverywhereStops) {
  std::vector<stats::AllocPoint> points(2);
  points[0] = {1e-3, 1e-4, 10, true};
  points[1] = {1e-3, 1e-4, 10, true};
  EXPECT_EQ(stats::pick_widest(points), -1);
}

TEST(Adaptive, ChunksDoubleAndRespectBudget) {
  EXPECT_EQ(stats::next_chunk(0, 1000), 64u);    // floor
  EXPECT_EQ(stats::next_chunk(100, 1000), 100u); // double current spend
  EXPECT_EQ(stats::next_chunk(100, 30), 30u);    // capped by what is left
  EXPECT_EQ(stats::next_chunk(100, 0), 0u);
}

// --------------------------- closed-form BPSK BER property (ladder) ----

// BPSK over AWGN, matched-filter statistic: the simulated BER must sit
// inside the exact Clopper-Pearson interval around the erfc closed form --
// equivalently, the closed form inside the interval around the count.
class AwgnBpskErfcProperty : public ::testing::TestWithParam<double> {};

TEST_P(AwgnBpskErfcProperty, SimulatedBerWithinClopperPearsonOfClosedForm) {
  const double ebn0_db = GetParam();
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  const double d = std::sqrt(2.0 * ebn0);
  const double analytic = q_function(d);

  const auto trial = [d](std::size_t, Rng& rng) {
    sim::TrialOutcome out;
    out.bits = 256;
    for (std::size_t b = 0; b < out.bits; ++b) {
      // Antipodal +1 transmitted, unit-variance noise on the matched
      // statistic: error iff the noise swamps the distance.
      if (rng.gaussian() > d) ++out.errors;
    }
    return out;
  };
  sim::BerStop stop;
  stop.min_errors = 60;
  stop.max_bits = 40'000'000;
  stop.max_trials = 200'000;
  const sim::BerPoint point = test::measure_trials(trial, stop, Rng(0xBE11 + GetParam())).ber;
  ASSERT_GE(point.errors, 10u) << "budget too small at " << ebn0_db << " dB";
  const stats::Interval ci =
      stats::clopper_pearson(point.errors, point.bits, 0.999);
  EXPECT_LE(ci.lo, analytic) << "Eb/N0 " << ebn0_db << " dB, ber " << point.ber;
  EXPECT_GE(ci.hi, analytic) << "Eb/N0 " << ebn0_db << " dB, ber " << point.ber;
}

INSTANTIATE_TEST_SUITE_P(Ebn0Ladder, AwgnBpskErfcProperty,
                         ::testing::Values(0.0, 2.0, 4.0, 6.0, 8.0));

// ----------------------- weighted estimator vs the closed form ----------

// The full ladder machinery on a synthetic matched-filter channel where
// the closed form is exact: index-cycled rungs, balance-heuristic weights,
// weighted accumulation. The estimate must agree with Q(d) at a BER plain
// Monte-Carlo could not touch with this trial count.
auto make_tilted_bpsk_trial(const stats::SamplingPolicy& policy, double d) {
  const std::vector<double> ladder = stats::sampling_ladder(policy);
  return [policy, ladder, d](std::size_t index, Rng& rng) {
    const double scale = stats::trial_noise_scale(policy, index);
    const double z = rng.gaussian(0.0, scale);
    sim::TrialOutcome out;
    out.bits = 1;
    out.errors = z > d ? 1u : 0u;
    out.weighted = true;
    out.log_weight = stats::mixture_log_weight(z, 1.0, ladder);
    return out;
  };
}

TEST(WeightedEstimator, MatchesClosedFormDeepInTheTail) {
  stats::SamplingPolicy policy;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 6.0;
  policy.levels = 4;
  const double d = 4.265;  // Q(d) ~ 1e-5: ~1 error expected unweighted
  const double analytic = q_function(d);

  sim::BerStop stop;
  stop.min_errors = std::numeric_limits<std::size_t>::max();
  stop.max_bits = std::numeric_limits<std::size_t>::max();
  stop.max_trials = 20'000;
  const sim::BerPoint point =
      test::measure_trials(make_tilted_bpsk_trial(policy, d), stop, Rng(0x15BE)).ber;

  EXPECT_TRUE(point.weighted);
  EXPECT_EQ(point.ci_method, stats::CiMethod::kNormalWeighted);
  EXPECT_GT(point.ess, 1000.0);
  // The normal interval must cover the closed form, and the point estimate
  // must be within a factor band plain MC could never certify here.
  EXPECT_LE(point.ci_lo, analytic);
  EXPECT_GE(point.ci_hi, analytic);
  EXPECT_GT(point.ber, 0.4 * analytic);
  EXPECT_LT(point.ber, 2.5 * analytic);
}

TEST(WeightedEstimator, CiWidthStopRuleFires) {
  stats::SamplingPolicy policy;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 5.0;
  policy.levels = 3;
  const double d = 3.0;  // Q(d) ~ 1.35e-3: converges quickly

  sim::BerStop stop;
  stop.min_errors = std::numeric_limits<std::size_t>::max();
  stop.max_bits = std::numeric_limits<std::size_t>::max();
  stop.max_trials = 200'000;
  stop.target_rel_ci_width = 0.25;
  const sim::BerPoint point =
      test::measure_trials(make_tilted_bpsk_trial(policy, d), stop, Rng(0x15BF)).ber;
  ASSERT_GT(point.ber, 0.0);
  EXPECT_LT(point.trials, stop.max_trials) << "CI stop never fired";
  EXPECT_LE(0.5 * (point.ci_hi - point.ci_lo) / point.ber,
            stop.target_rel_ci_width + 1e-12);
}

TEST(WeightedEstimator, ParallelCommitIsByteIdenticalAcrossWorkerCounts) {
  stats::SamplingPolicy policy;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 6.0;
  policy.levels = 4;
  const double d = 3.5;

  sim::BerStop stop;
  stop.min_errors = 40;
  stop.max_bits = std::numeric_limits<std::size_t>::max();
  stop.max_trials = 50'000;
  const Rng root(0x15C0);
  const auto trial = make_tilted_bpsk_trial(policy, d);

  const sim::BerPoint serial = test::measure_trials(trial, stop, root).ber;
  for (const std::size_t workers : {1u, 3u, 8u}) {
    const sim::BerPoint par = test::measure_trials(trial, stop, root, workers).ber;
    EXPECT_EQ(par.trials, serial.trials) << workers << " workers";
    EXPECT_EQ(par.errors, serial.errors) << workers << " workers";
    // Bit-exact, not approximately equal: commit order is the contract.
    EXPECT_EQ(par.ber, serial.ber) << workers << " workers";
    EXPECT_EQ(par.ci_lo, serial.ci_lo) << workers << " workers";
    EXPECT_EQ(par.ci_hi, serial.ci_hi) << workers << " workers";
    EXPECT_EQ(par.ess, serial.ess) << workers << " workers";
  }
}

// ------------------------- real link: IS vs plain MC at overlap ---------

// On the gen-2 link at a shallow point both estimators can measure, the
// importance-sampled estimate and plain Monte-Carlo must agree within
// their confidence intervals. This is the estimator's end-to-end
// cross-check on the real receiver (channel-estimation noise and all),
// not just on the synthetic matched-filter model.
TEST(RealLinkSampling, PlainAndImportanceSampledIntervalsOverlap) {
  engine::SweepConfig config;
  config.seed = 0xC0FE;
  config.workers = 4;
  config.stop.min_errors = 25;
  config.stop.max_bits = std::numeric_limits<std::size_t>::max();
  config.stop.max_trials = 4000;

  engine::ScenarioSpec scenario =
      engine::ScenarioRegistry::global().make("gen2_cm_grid_deep");
  engine::restrict_scenario(scenario, "channel", "AWGN");
  engine::restrict_scenario(scenario, "ebn0_db", "6");

  engine::SweepEngine engine(config);
  const engine::SweepResult result = engine.run(scenario, {});
  ASSERT_EQ(result.records.size(), 2u);

  const sim::BerPoint* plain = nullptr;
  const sim::BerPoint* is = nullptr;
  for (const auto& record : result.records) {
    (record.spec.tag("sampling") == "is" ? is : plain) = &record.ber;
  }
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(is, nullptr);
  EXPECT_FALSE(plain->weighted);
  EXPECT_TRUE(is->weighted);
  EXPECT_GT(plain->ber, 0.0);
  EXPECT_GT(is->ber, 0.0);
  // Two-sided intervals overlap.
  EXPECT_LE(is->ci_lo, plain->ci_hi);
  EXPECT_LE(plain->ci_lo, is->ci_hi);
}

// The same cross-check on the gen-1 link, whose noise tilt rides its
// single-precision sample arena: at 6 dB on AWGN (BER ~3e-3) plain
// Monte-Carlo sees errors within a hundred packets, so a biased tilt shape,
// weight or target-bit mapping shows up as disjoint intervals. Each arm
// gets its own budget: plain stops on errors, the importance-sampled arm
// (one scored bit per trial) runs a fixed trial count.
TEST(RealLinkSampling, Gen1PlainAndImportanceSampledIntervalsOverlap) {
  engine::ScenarioSpec plain_plan = engine::ScenarioRegistry::global().make("gen1_waterfall");
  engine::restrict_scenario(plain_plan, "ebn0_db", "6");
  ASSERT_EQ(plain_plan.points.size(), 1u);
  engine::ScenarioSpec is_plan = plain_plan;
  stats::SamplingPolicy& policy = is_plan.points.front().link.options.sampling;
  policy.mode = stats::SamplingMode::kAutoLadder;
  policy.max_scale = 6.0;
  policy.levels = 4;

  const auto measure = [](const engine::ScenarioSpec& plan, std::size_t min_errors,
                          std::size_t max_trials) {
    engine::SweepConfig config;
    config.seed = 0x6E1;
    config.workers = 4;
    config.stop.min_errors = min_errors;
    config.stop.max_bits = std::numeric_limits<std::size_t>::max();
    config.stop.max_trials = max_trials;
    return engine::SweepEngine(config).run(plan, {}).records.at(0).ber;
  };
  const sim::BerPoint plain = measure(plain_plan, 30, 1000);
  const sim::BerPoint is = measure(is_plan, std::numeric_limits<std::size_t>::max(), 240);

  EXPECT_FALSE(plain.weighted);
  EXPECT_TRUE(is.weighted);
  EXPECT_EQ(plain.errors, 30u);
  EXPECT_EQ(is.trials, 240u);
  EXPECT_GT(is.ci_lo, 0.0);  // an informative interval, not the vacuous one
  EXPECT_LE(is.ci_lo, plain.ci_hi) << "IS " << is.ber << " vs plain " << plain.ber;
  EXPECT_LE(plain.ci_lo, is.ci_hi) << "IS " << is.ber << " vs plain " << plain.ber;
}

}  // namespace
}  // namespace uwb
