#pragma once
/// \file verify.h
/// \brief Claim verification: checks a sweep result document against a
///        declared-expectations JSON file (`uwb_farm verify`).
///
/// Expectations capture what a result is *supposed* to look like -- the
/// physics-level claims (BER falls with SNR, BER in a plausible band) and
/// the bookkeeping claims (all points present, trial counts sane) -- so a
/// refactor that silently degrades results fails a committed expectations
/// file in CI instead of shipping. Schema (versioned; a key it does not
/// name, at any level, throws):
///
///   {
///     "version": 1,
///     "scenario": "gen2_cm_grid",       // optional: doc header must match
///     "points": 6,                      // optional: exact point count
///     "min_total_trials": 10,           // optional: sum of trials >= this
///     "checks": [
///       {"check": "range", "metric": "ber",
///        "where": {"channel": "CM1"},   // optional tag filter
///        "min": 0, "max": 0.2},         // either bound optional, not both
///       {"check": "monotone", "metric": "ber", "axis": "ebn0_db",
///        "group_by": ["channel"],       // optional; default: one group
///        "direction": "nonincreasing",  // or "nondecreasing"
///        "tolerance": 0},               // optional slack
///       {"check": "accounting"},        // errors <= bits, trials within
///                                       // the stop rule, on every point
///       {"check": "ci_contains",        // each selected point's two-sided
///        "where": {"channel": "AWGN"},  // [ci_lo, ci_hi] must contain
///        "value": 1e-3},                // "value" -- or, with "value"
///                                       // absent, the point's own ber
///                                       // (interval brackets estimate)
///       {"check": "reference",          // each selected point's BER
///        "where": {"channel": "AWGN"},  // interval must overlap the one
///        "points": [{"label": "4",      // recomputed from the fixture
///          "errors": 812,               // point with its label, both at
///          "bits": 64000,               // the Bonferroni per-point level
///          "ber": 0.0127,               // 1 - 0.01 / m over the m points
///          "ci95": 9e-4}]},             // checked
///       {"check": "analytic",           // each selected point's interval
///        "axis": "ebn0_db",             // (same Bonferroni level) must
///        "loss_db": 2}                  // overlap [Q(sqrt(2 g)),
///                                       // Q(sqrt(2 g / L))], g = Eb/N0
///                                       // from the axis tag, L the loss
///     ]
///   }
///
/// Intervals in `reference` and `analytic` are exact Clopper-Pearson from
/// a point's errors and bits, or -- for an importance-sampled point
/// (`"weighted": true`) -- its normal interval rescaled from ci95, the 95%
/// half-width; the family confidence of either check is 0.99. `analytic`
/// holds the antipodal (BPSK) AWGN curve, the one closed form so far. A
/// reference fixture also carries `spec_digest` and `seed`, its provenance,
/// which verify ignores.
///
/// `metric` is "ber", "ci95", "errors", "bits", "trials", or the name of a
/// recorded metric (its mean). A filter or group that selects no points is
/// itself a failure -- an expectation that checks nothing is a stale
/// expectation, not a passing one.

#include <cstddef>
#include <string>
#include <vector>

#include "io/json.h"
#include "io/result_io.h"

namespace uwb::farm {

/// Expectations format version (independent of the checkpoint format).
inline constexpr int kExpectationsVersion = 1;

/// The outcome of one verification pass.
struct VerifyReport {
  std::size_t checks = 0;              ///< checks evaluated
  std::vector<std::string> failures;   ///< one line per violated claim

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Evaluates \p expectations (a parsed expectations document) against
/// \p doc. Violated claims land in the report; a malformed expectations
/// document throws InvalidArgument (a typo'd check must not count as a
/// pass).
[[nodiscard]] VerifyReport verify_result(const io::ResultDoc& doc,
                                         const io::JsonValue& expectations);

/// A reference fixture for \p doc: an expectations document whose one
/// `reference` check holds every point's label, counts, ber and ci95
/// (and `weighted` for an importance-sampled point), plus the FNV-1a
/// digest of \p spec_text (the scenario document the run expanded) and the
/// run's seed. Checked by verify against a rerun of the same spec
/// on another seed (`uwb_farm fixture`, test_oracle).
[[nodiscard]] std::string reference_fixture(const io::ResultDoc& doc,
                                            const std::string& spec_text);

/// Convenience: loads both files and verifies.
[[nodiscard]] VerifyReport verify_result_files(const std::string& result_path,
                                               const std::string& expectations_path);

}  // namespace uwb::farm
