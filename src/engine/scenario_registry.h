#pragma once
/// \file scenario_registry.h
/// \brief Declarative sweep scenarios: named, composable axis grids that
///        expand into a flat trial plan for the sweep engine.
///
/// A scenario is a base transceiver configuration plus a list of axes
/// (channel model, Eb/N0 grid, back-end variant, interferer/notch/FEC/
/// modulation settings...). Building takes the cartesian product of the
/// axes, row-major in declaration order, yielding one PointSpec per grid
/// point. A PointSpec is just a labeled txrx::LinkSpec, so every point --
/// gen-1 or gen-2 -- flows through the same txrx::make_link factory, can be
/// serialized to JSON (src/io/spec_io.h), and can be loaded back from a
/// file. Scenarios are registered by name in the ScenarioRegistry so a
/// bench or the uwb_sweep CLI asks for "gen2_cm_grid" instead of
/// hand-rolling nested loops.

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "txrx/link.h"
#include "txrx/transceiver_config.h"

namespace uwb::engine {

using txrx::Generation;

/// One fully-resolved grid point: a labeled link spec (everything needed to
/// construct a link and run packet trials) plus the axis tags the sinks
/// report.
struct PointSpec {
  std::string label;  ///< "CM3 | 12 dB | full", built from the axis values
  txrx::LinkSpec link;

  /// Ordered (axis, value) pairs, e.g. {"channel","CM3"}, {"ebn0_db","12"}.
  std::vector<std::pair<std::string, std::string>> tags;

  /// Value of an axis tag, or "" when the axis is absent.
  [[nodiscard]] std::string tag(const std::string& key) const;
};

/// A named, flat trial plan.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<PointSpec> points;
};

/// Restricts \p scenario to the points whose \p axis tag equals one of the
/// comma-separated \p values -- the semantics of a CLI "axis=value"
/// override. Fails loudly: an axis name no point declares, or a value that
/// matches no point, throws InvalidArgument (a typo must not silently run
/// the full grid or an empty one). The surviving points keep their relative
/// order and are re-indexed, i.e. the restricted scenario is a new,
/// smaller plan.
void restrict_scenario(ScenarioSpec& scenario, const std::string& axis,
                       const std::string& values);

/// One named setting of an axis: mutates the point's config and/or trial
/// options.
template <typename Config>
struct LinkVariant {
  std::string name;
  std::function<void(Config&, txrx::TrialOptions&)> apply;
};

using Gen1Variant = LinkVariant<txrx::Gen1Config>;
using Gen2Variant = LinkVariant<txrx::Gen2Config>;

namespace builder_detail {

std::string format_axis_number(double v);
std::string channel_axis_name(int cm);
std::string join_axis_label(const std::vector<std::pair<std::string, std::string>>& tags);
constexpr Generation generation_of(const txrx::Gen1Config*) { return Generation::kGen1; }
constexpr Generation generation_of(const txrx::Gen2Config*) { return Generation::kGen2; }

}  // namespace builder_detail

/// Composes a scenario for either generation from a base config and axes.
/// Axes expand row-major: the first declared axis is the outermost loop.
template <typename Config>
class ScenarioBuilder {
 public:
  using Variant = LinkVariant<Config>;
  static constexpr Generation kGeneration =
      builder_detail::generation_of(static_cast<const Config*>(nullptr));

  ScenarioBuilder(std::string name, Config base,
                  txrx::TrialOptions base_options = txrx::default_options(kGeneration))
      : name_(std::move(name)), base_(std::move(base)),
        base_options_(std::move(base_options)) {}

  ScenarioBuilder& description(std::string text) {
    description_ = std::move(text);
    return *this;
  }

  /// Channel-model axis "channel": 0 = AWGN, 1..4 = CM1..CM4.
  ScenarioBuilder& channels(std::vector<int> cms) {
    std::vector<Variant> variants;
    variants.reserve(cms.size());
    for (int cm : cms) {
      variants.push_back({builder_detail::channel_axis_name(cm),
                          [cm](Config&, txrx::TrialOptions& o) { o.cm = cm; }});
    }
    return axis("channel", std::move(variants));
  }

  /// Eb/N0 axis "ebn0_db".
  ScenarioBuilder& ebn0_grid(std::vector<double> ebn0_db) {
    std::vector<Variant> variants;
    variants.reserve(ebn0_db.size());
    for (double db : ebn0_db) {
      variants.push_back({builder_detail::format_axis_number(db),
                          [db](Config&, txrx::TrialOptions& o) { o.ebn0_db = db; }});
    }
    return axis("ebn0_db", std::move(variants));
  }

  /// Arbitrary axis (back-end variant, interferer, FEC, modulation, ...).
  ScenarioBuilder& axis(std::string axis_name, std::vector<Variant> variants) {
    uwb::detail::require(!variants.empty(),
                         "scenario axis '" + axis_name + "' has no variants");
    axes_.emplace_back(std::move(axis_name), std::move(variants));
    return *this;
  }

  [[nodiscard]] ScenarioSpec build() const {
    ScenarioSpec spec;
    spec.name = name_;
    spec.description = description_;
    // Row-major cartesian product: odometer over the axis indices with the
    // last declared axis spinning fastest.
    std::size_t total = 1;
    for (const auto& [axis_name, variants] : axes_) total *= variants.size();
    std::vector<std::size_t> digits(axes_.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
      PointSpec point;
      Config config = base_;
      txrx::TrialOptions options = base_options_;
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const Variant& variant = axes_[a].second[digits[a]];
        variant.apply(config, options);
        point.tags.emplace_back(axes_[a].first, variant.name);
      }
      point.link.config = std::move(config);
      point.link.options = std::move(options);
      point.label = builder_detail::join_axis_label(point.tags);
      spec.points.push_back(std::move(point));
      for (std::size_t a = axes_.size(); a-- > 0;) {
        if (++digits[a] < axes_[a].second.size()) break;
        digits[a] = 0;
      }
    }
    return spec;
  }

 private:
  std::string name_;
  std::string description_;
  Config base_;
  txrx::TrialOptions base_options_;
  std::vector<std::pair<std::string, std::vector<Variant>>> axes_;
};

using Gen1ScenarioBuilder = ScenarioBuilder<txrx::Gen1Config>;
using Gen2ScenarioBuilder = ScenarioBuilder<txrx::Gen2Config>;

/// Name -> scenario factory map. The process-wide instance (global()) comes
/// pre-loaded with the paper's standard grids; benches and tests may add
/// their own or build private registries.
class ScenarioRegistry {
 public:
  using Factory = std::function<ScenarioSpec()>;

  /// The process-wide registry, lazily populated with the built-in
  /// scenarios on first use. Thread-safe.
  static ScenarioRegistry& global();

  /// Registers (or replaces) a named scenario.
  void add(const std::string& name, Factory factory);

  /// Expands the named scenario to its flat trial plan.
  /// \throws InvalidArgument when the name is unknown.
  [[nodiscard]] ScenarioSpec make(const std::string& name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace uwb::engine
