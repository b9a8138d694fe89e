#pragma once
/// \file spec_io.h
/// \brief JSON (de)serialization for the declarative simulation specs:
///        txrx::TrialOptions, the full Gen1Config/Gen2Config trees,
///        txrx::LinkSpec, sim::BerStop, and engine::ScenarioSpec.
///
/// Every configuration field is serialized (doubles in shortest
/// round-trip form), so a spec written to a file and loaded back drives a
/// byte-identical sweep under the same seed -- the contract behind
/// `uwb_sweep --dump-scenario` / `uwb_sweep --file`. Each config struct
/// names its keys once, in one io/fields.h list that drives both the writer
/// (keys in list order) and the reader. Readers are strict: an unknown key
/// throws InvalidArgument (typos fail loudly), a missing key keeps the
/// field's C++ default (hand-written files stay terse), except a point's
/// `link` and a link's `generation`, which every document must hold.

#include <string>

#include "engine/scenario_registry.h"
#include "io/fields.h"
#include "io/json.h"
#include "sim/ber_simulator.h"
#include "txrx/link.h"

namespace uwb::io {

/// The stopping rule's fields, shared by every document that records one
/// (specs, results, run manifests, farm specs). `metric` and the CI-width
/// target are written only when set, so BER-only documents keep their
/// historical bytes.
template <typename V>
void fields(V& v, Of<sim::BerStop> auto& s) {
  v("min_errors", s.min_errors);
  v("max_bits", s.max_bits);
  v("max_trials", s.max_trials);
  v.field_if(!s.metric.empty(), "metric", s.metric);
  v.field_if(s.target_rel_ci_width > 0.0, "target_rel_ci_width", s.target_rel_ci_width);
}

// --------------------------------------------------------------- to JSON ----

[[nodiscard]] JsonValue to_json(const txrx::TrialOptions& options);
[[nodiscard]] JsonValue to_json(const txrx::Gen1Config& config);
[[nodiscard]] JsonValue to_json(const txrx::Gen2Config& config);
[[nodiscard]] JsonValue to_json(const txrx::LinkSpec& spec);

// ------------------------------------------------------------- from JSON ----

/// \p base supplies the defaults for keys the document omits (pass
/// txrx::default_options(gen) to honor per-generation defaults, as
/// link_spec_from_json does).
[[nodiscard]] txrx::TrialOptions trial_options_from_json(const JsonValue& v,
                                                         txrx::TrialOptions base = {});
[[nodiscard]] txrx::Gen1Config gen1_config_from_json(const JsonValue& v);
[[nodiscard]] txrx::Gen2Config gen2_config_from_json(const JsonValue& v);
[[nodiscard]] txrx::LinkSpec link_spec_from_json(const JsonValue& v);

// ----------------------------------------------------------------- files ----

/// Pretty-printed scenario document.
[[nodiscard]] std::string scenario_to_json_text(const engine::ScenarioSpec& scenario);

/// Parses a scenario document from text.
[[nodiscard]] engine::ScenarioSpec scenario_from_json_text(const std::string& text);

/// Writes \p scenario to \p path (parent directories are created).
void save_scenario_file(const engine::ScenarioSpec& scenario, const std::string& path);

/// Loads a scenario document from \p path.
[[nodiscard]] engine::ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace uwb::io
