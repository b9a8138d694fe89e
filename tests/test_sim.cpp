// Tests for the simulation harness itself: BER bookkeeping, Monte-Carlo
// stopping rules, table rendering, canned scenarios.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "sim/ber_simulator.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/table.h"

namespace uwb::sim {
namespace {

// -------------------------------------------------------------- counters ----

TEST(BerCounter, Accumulates) {
  BerCounter counter;
  EXPECT_DOUBLE_EQ(counter.ber(), 0.0);
  counter.add(5, 1000);
  counter.add(0, 1000);
  EXPECT_EQ(counter.errors(), 5u);
  EXPECT_EQ(counter.bits(), 2000u);
  EXPECT_DOUBLE_EQ(counter.ber(), 2.5e-3);
  counter.reset();
  EXPECT_EQ(counter.bits(), 0u);
}

TEST(BerCounter, ConfidenceShrinksWithBits) {
  BerCounter small, large;
  small.add(10, 1000);
  large.add(1000, 100000);  // same BER, 100x the data
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
  EXPECT_GT(small.ci95_halfwidth(), 0.0);
}

// ------------------------------------------------------------ monte carlo ----

TEST(MeasureBer, StopsOnErrorBudget) {
  // A deterministic trial with BER 10%: 50 errors arrive after 5 trials of
  // 100 bits with 10 errors each.
  BerStop stop;
  stop.min_errors = 50;
  stop.max_bits = 1000000;
  const BerPoint point = measure_ber([]() { return TrialOutcome{100, 10, {}}; }, stop);
  EXPECT_EQ(point.trials, 5u);
  EXPECT_EQ(point.errors, 50u);
  EXPECT_DOUBLE_EQ(point.ber, 0.1);
}

TEST(MeasureBer, StopsOnBitBudgetWhenErrorFree) {
  BerStop stop;
  stop.min_errors = 50;
  stop.max_bits = 5000;
  const BerPoint point = measure_ber([]() { return TrialOutcome{1000, 0, {}}; }, stop);
  EXPECT_EQ(point.trials, 5u);
  EXPECT_DOUBLE_EQ(point.ber, 0.0);
}

TEST(MeasureBer, ZeroBitTrialsStopAtMaxTrials) {
  // A degenerate trial stream that never yields a bit (e.g. every packet
  // lost before comparison) must still terminate at max_trials and report
  // finite, zeroed statistics -- no divisions by zero bits.
  BerStop stop;
  stop.min_errors = 10;
  stop.max_bits = 1000;
  stop.max_trials = 7;
  const BerPoint point = measure_ber([]() { return TrialOutcome{0, 0, {}}; }, stop);
  EXPECT_EQ(point.trials, 7u);
  EXPECT_EQ(point.bits, 0u);
  EXPECT_EQ(point.errors, 0u);
  EXPECT_DOUBLE_EQ(point.ber, 0.0);
  EXPECT_DOUBLE_EQ(point.ci95, 0.0);
  EXPECT_FALSE(std::isnan(point.ber));
  EXPECT_FALSE(std::isnan(point.ci95));
}

TEST(MeasureBer, MaxTrialsIsHardStopWithoutErrors) {
  // Error-free trials with a huge bit budget: the trial cap must bound the
  // run on its own.
  BerStop stop;
  stop.min_errors = 50;
  stop.max_bits = 1'000'000'000;
  stop.max_trials = 5;
  const BerPoint point = measure_ber([]() { return TrialOutcome{10, 0, {}}; }, stop);
  EXPECT_EQ(point.trials, 5u);
  EXPECT_EQ(point.bits, 50u);
  EXPECT_DOUBLE_EQ(point.ber, 0.0);
}

TEST(MeasureBer, MatchesBernoulliStatistics) {
  Rng rng(3);
  const double p = 0.02;
  BerStop stop;
  stop.min_errors = 400;
  stop.max_bits = 10000000;
  const BerPoint point = measure_ber(
      [&]() {
        std::size_t errors = 0;
        for (int i = 0; i < 500; ++i) {
          if (rng.uniform() < p) ++errors;
        }
        return TrialOutcome{500, errors, {}};
      },
      stop);
  EXPECT_NEAR(point.ber, p, 3.0 * point.ci95 / 1.96);  // within ~3 sigma
}

// ----------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  Table table({"a", "long header", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"wide cell", "x", "y"});
  const std::string out = table.to_string();
  // Header present, separator present, all cells present.
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("wide cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Rows have equal rendered width (alignment property).
  const auto first_nl = out.find('\n');
  const auto second_nl = out.find('\n', first_nl + 1);
  const auto third_nl = out.find('\n', second_nl + 1);
  EXPECT_EQ(first_nl, third_nl - second_nl - 1);
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), Error);
  EXPECT_THROW(Table{std::vector<std::string>{}}, Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::db(6.02), "6.0 dB");
  EXPECT_EQ(Table::percent(0.375, 1), "37.5%");
  EXPECT_EQ(Table::sci(0.00123, 2), "1.23e-03");
}

// -------------------------------------------------------------- scenarios ----

TEST(Scenario, NominalConfigsMatchPaperNumbers) {
  const auto g1 = gen1_nominal();
  EXPECT_NEAR(g1.bit_rate_hz(), 193e3, 1e3);
  EXPECT_EQ(g1.adc_lanes, 4);

  const auto g2 = gen2_nominal();
  EXPECT_DOUBLE_EQ(g2.bit_rate_hz(), 100e6);
  EXPECT_EQ(g2.sar.bits, 5);
  EXPECT_EQ(g2.chanest.quantization_bits, 4);
}

TEST(Scenario, FastVariantsKeepTheArchitecture) {
  // The fast configs shrink Monte-Carlo cost but must not change any of
  // the paper-level architecture knobs.
  const auto nominal = gen2_nominal();
  const auto fast = gen2_fast();
  EXPECT_EQ(fast.sar.bits, nominal.sar.bits);
  EXPECT_EQ(fast.rake.num_fingers, nominal.rake.num_fingers);
  EXPECT_EQ(fast.mlse.memory, nominal.mlse.memory);
  EXPECT_DOUBLE_EQ(fast.prf_hz, nominal.prf_hz);
  // Only the preamble/estimation budgets differ.
  EXPECT_LT(fast.packet.preamble_msequence_degree, nominal.packet.preamble_msequence_degree);
}

}  // namespace
}  // namespace uwb::sim
