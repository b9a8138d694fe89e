// Tests for the parallel correlator bank behind the gen-1 acquisition search.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "channel/awgn.h"
#include "common/rng.h"
#include "phy/scrambler.h"
#include "sync/correlator_bank.h"

namespace uwb::sync {
namespace {

CplxVec pn_template(std::size_t oversample = 1) {
  const auto chips = phy::to_chips(phy::msequence(6));  // 63 chips
  CplxVec tmpl;
  tmpl.reserve(chips.size() * oversample);
  for (double c : chips) {
    for (std::size_t k = 0; k < oversample; ++k) tmpl.emplace_back(c, 0.0);
  }
  return tmpl;
}

CplxVec embed(const CplxVec& tmpl, std::size_t offset, std::size_t total, double scale = 1.0) {
  CplxVec x(total, cplx{});
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[offset + i] = scale * tmpl[i];
  return x;
}

// -------------------------------------------------------- correlator bank ----

TEST(CorrelatorBank, FindsPhaseCleanly) {
  const CplxVec tmpl = pn_template();
  const CplxVec x = embed(tmpl, 40, 300);
  CorrelatorBankConfig config;
  config.parallelism = 8;
  config.threshold = 0.5;
  const CorrelatorBank bank(config);
  const SearchResult sr = bank.search(x, tmpl, 200);
  EXPECT_TRUE(sr.threshold_crossed);
  EXPECT_EQ(sr.best.phase, 40u);
  EXPECT_NEAR(sr.best.metric, 1.0, 1e-9);
}

TEST(CorrelatorBank, EarlyTerminationSavesDwells) {
  const CplxVec tmpl = pn_template();
  const CplxVec x = embed(tmpl, 10, 400);
  CorrelatorBankConfig config;
  config.parallelism = 4;
  config.threshold = 0.5;
  const CorrelatorBank bank(config);
  const SearchResult sr = bank.search(x, tmpl, 300);
  // Found in the dwell covering phase 10: 3 dwells of 4 phases.
  EXPECT_TRUE(sr.threshold_crossed);
  EXPECT_EQ(sr.dwells, 3u);
  EXPECT_LE(sr.phases_evaluated, 12u);
}

TEST(CorrelatorBank, ParallelismDividesDwells) {
  const CplxVec tmpl = pn_template();
  // No signal: full search.
  Rng rng(1);
  CplxVec x(400);
  for (auto& v : x) v = rng.cgaussian(0.01);
  for (std::size_t p : {1u, 4u, 16u}) {
    CorrelatorBankConfig config;
    config.parallelism = p;
    config.threshold = 0.99;
    const CorrelatorBank bank(config);
    const SearchResult sr = bank.search(x, tmpl, 299);
    EXPECT_FALSE(sr.threshold_crossed);
    EXPECT_EQ(sr.dwells, (300 + p - 1) / p) << "P=" << p;
  }
}

TEST(CorrelatorBank, ExhaustiveFindsGlobalBest) {
  const CplxVec tmpl = pn_template();
  // A partial (half-overlap) copy early and a full copy later: normalized
  // correlation scores the full copy higher; exhaustive must pick it.
  CplxVec x(500, cplx{});
  for (std::size_t i = 0; i < tmpl.size() / 2; ++i) x[20 + i] = tmpl[i];
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[200 + i] += tmpl[i];
  CorrelatorBankConfig config;
  config.parallelism = 8;
  config.threshold = 0.5;
  const CorrelatorBank bank(config);
  EXPECT_EQ(bank.search_exhaustive(x, tmpl, 400).best.phase, 200u);
  EXPECT_NEAR(bank.search_exhaustive(x, tmpl, 400).best.metric, 1.0, 1e-9);
}

TEST(CorrelatorBank, RejectsBadConfig) {
  EXPECT_THROW(CorrelatorBank({0, 0.5}), InvalidArgument);
  EXPECT_THROW(CorrelatorBank({4, 1.5}), InvalidArgument);
}

}  // namespace
}  // namespace uwb::sync
