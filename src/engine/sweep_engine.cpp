#include "engine/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include <sys/resource.h>

#include "common/error.h"
#include "stats/adaptive.h"
#include "dsp/fft.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "txrx/link.h"

namespace uwb::engine {

namespace {

// Salts separating the two per-point child streams (see sweep_engine.h).
constexpr uint64_t kTrialStreamSalt = 0;
constexpr uint64_t kLinkSeedSalt = 1;

/// Worker-local trial state for one grid point: the factory hands every
/// worker its own link (links are not safe for concurrent trials), all
/// built from the same seed so the simulated hardware is identical. For
/// ensemble-mode points the shared realizations ride along and trial i
/// resolves to realization i % count -- index-keyed, so any worker gets the
/// same channel for the same trial. The per-trial context and metric
/// filtering live in txrx::run_trial.
TrialFactory make_trial_factory(const PointSpec& spec, uint64_t link_seed,
                                std::shared_ptr<const ChannelEnsemble> ensemble) {
  return [&spec, link_seed, ensemble]() -> TrialFn {
    std::shared_ptr<txrx::Link> link = txrx::make_link(spec.link, link_seed);
    return [&spec, link, ensemble](std::size_t index, Rng& rng) {
      const channel::Cir* cir =
          ensemble != nullptr ? &ensemble->realization_for_trial(index) : nullptr;
      return txrx::run_trial(*link, spec.link.options, index, cir, rng);
    };
  };
}

/// Loud up-front check that a metric-targeting stop rule can actually see
/// its metric on every point: the metric must be one the point's trial
/// kind emits AND survive the point's record_metrics filter -- otherwise
/// no trial would ever succeed and the rule would degenerate to the
/// trial/bit budgets without a word.
void validate_stop_metric(const ScenarioSpec& scenario, const std::string& metric) {
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    const PointSpec& point = scenario.points[p];
    const std::vector<std::string>& recorded = point.link.options.record_metrics;
    const bool visible =
        txrx::emits_metric(point.link.generation(), point.link.options.kind, metric) &&
        (recorded.empty() ||
         std::find(recorded.begin(), recorded.end(), metric) != recorded.end());
    if (!visible) {
      throw InvalidArgument("scenario '" + scenario.name + "' point " +
                            std::to_string(p) + " ('" + point.label +
                            "') does not record stop metric '" + metric + "'");
    }
  }
}

/// What one point's measurement needs, derived from the seeding contract
/// (see sweep_engine.h): the point's trial stream and the per-worker trial
/// factory whose links all share the point's link seed.
struct PointPlan {
  Rng trial_root;
  TrialFactory factory;
};

/// The one per-point setup run() and run_adaptive() share. Ensemble-mode
/// multipath points share one realization set per channel-axis group: the
/// cache key is pure spec content (SvParams fingerprint, ensemble seed,
/// count), so every SNR/backend point of a group -- in this process or any
/// shard -- resolves the same ensemble.
PointPlan plan_point(const Rng& sweep_root, std::size_t index, const PointSpec& spec,
                     ChannelCache& cache, obs::TraceRecorder* trace) {
  const Rng point_root = sweep_root.fork(index);
  std::shared_ptr<const ChannelEnsemble> ensemble;
  const txrx::ChannelSource& source = spec.link.options.channel_source;
  if (source.is_ensemble() && spec.link.options.cm >= 1) {
    const channel::SvParams params =
        txrx::ensemble_sv_params(spec.link.options.cm, spec.link.generation());
    obs::Span cache_span(trace, "channel_cache", "resolve " + params.name);
    cache_span.arg("count", static_cast<std::uint64_t>(source.ensemble_count));
    cache_span.arg("seed", source.ensemble_seed);
    ensemble = cache.get(params, source.ensemble_seed, source.ensemble_count);
  }
  return {point_root.fork(kTrialStreamSalt),
          make_trial_factory(spec, point_root.fork(kLinkSeedSalt).seed(), std::move(ensemble))};
}

/// Run-level counter baselines. The caches are long-lived (possibly
/// process-global), so a run's counters are deltas from construction to
/// finish() -- whatever passes and top-ups ran in between.
class RunMeter {
 public:
  explicit RunMeter(const ChannelCache& cache)
      : cache_(cache),
        cache_before_(cache.stats()),
        fft_before_(dsp::fft_plan_cache_stats()),
        start_(std::chrono::steady_clock::now()) {}

  /// The run's counters; \p pool ran every task of the run and \p states
  /// are its points' final measurement states.
  [[nodiscard]] obs::RunCounters finish(ThreadPool& pool,
                                        const std::vector<PointState>& states) const {
    pool.wait_idle();  // task counts are exact once the pool is quiesced
    obs::RunCounters counters;
    counters.pool = pool.worker_stats();
    for (const PointState& state : states) {
      counters.trials_executed += state.executed;
      counters.trials_committed += state.committed;
    }
    const ChannelCache::Stats cache_after = cache_.stats();
    counters.cache_hits = cache_after.hits - cache_before_.hits;
    counters.cache_disk_loads = cache_after.disk_loads - cache_before_.disk_loads;
    counters.cache_generated = cache_after.generated - cache_before_.generated;
    counters.cache_sv_draws = cache_after.sv_draws - cache_before_.sv_draws;
    const dsp::FftPlanCacheStats fft_after = dsp::fft_plan_cache_stats();
    counters.fft_plan_hits = fft_after.hits - fft_before_.hits;
    counters.fft_plan_misses = fft_after.misses - fft_before_.misses;
    counters.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    counters.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
    return counters;
  }

 private:
  const ChannelCache& cache_;
  ChannelCache::Stats cache_before_;
  dsp::FftPlanCacheStats fft_before_;
  std::chrono::steady_clock::time_point start_;
};

ChannelCache& cache_of(const SweepConfig& config) {
  return config.channel_cache != nullptr ? *config.channel_cache : ChannelCache::global();
}

/// One pass over every point of \p scenario in \p config's shard, trials on
/// \p pool, records streamed to \p sinks in plan order. Each record's
/// measurement state lands at the same position of \p states. The caller
/// owns the pool, the states and the run counters, so run_adaptive's
/// top-ups can resume the points and share the rest.
SweepResult run_points(const SweepConfig& config, const ScenarioSpec& scenario,
                       const std::vector<ResultSink*>& sinks, ThreadPool& pool,
                       ChannelCache& cache, std::vector<PointState>& states) {
  // Fail fast on a bad plan (e.g. a hand-written spec asking gen-1 for an
  // interferer): every point is validated before any trial runs, so an
  // invalid late point cannot discard hours of completed work mid-sweep.
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    try {
      txrx::validate_spec(scenario.points[p].link);
    } catch (const Error& e) {
      throw InvalidArgument("scenario '" + scenario.name + "' point " +
                            std::to_string(p) + " ('" + scenario.points[p].label +
                            "'): " + e.what());
    }
  }
  if (!config.stop.metric.empty()) validate_stop_metric(scenario, config.stop.metric);

  SweepResult result;
  result.info.scenario = scenario.name;
  result.info.seed = config.seed;
  result.info.stop = config.stop;
  result.info.num_points = scenario.points.size();

  for (ResultSink* sink : sinks) sink->begin(result.info);

  const ChannelCache::Stats cache_before = cache.stats();  // sv_draws counter track
  if (config.trace != nullptr) config.trace->name_thread("engine");
  obs::Span run_span(config.trace, "engine", "run " + scenario.name);
  run_span.arg("seed", config.seed);

  if (config.progress != nullptr) {
    std::size_t shard_points = 0;
    for (std::size_t p = 0; p < scenario.points.size(); ++p) {
      if (p % config.shard_count == config.shard_index) ++shard_points;
    }
    config.progress->begin_run(shard_points);
  }

  const Rng sweep_root(config.seed);
  const PointHooks hooks{config.trace, config.progress, config.profile, config.cancel};
  std::uint64_t traced_trials = 0;
  std::uint64_t traced_errors = 0;
  obs::StageTable traced_stage_totals;  // cumulative, for the counter track

  // Points run one after another; the pool parallelizes the trials inside
  // each point. That keeps sink delivery in plan order and makes every
  // point's result an independent pure function of (seed, point_index) --
  // including under sharding, which only skips points and never re-indexes.
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    if (p % config.shard_count != config.shard_index) continue;
    if (hooks.cancelled()) {
      result.interrupted = true;
      break;
    }
    const PointSpec& spec = scenario.points[p];
    if (config.progress != nullptr) config.progress->begin_point(p, spec.label);
    obs::Span point_span(config.trace, "engine", "point " + spec.label);
    point_span.arg("index", static_cast<std::uint64_t>(p));

    const PointPlan plan = plan_point(sweep_root, p, spec, cache, config.trace);

    // Per-point stage attribution: the workers' accumulators are zeroed
    // here and merged after the measure returns (all workers quiesced), so
    // each record carries this point's table alone.
    if (config.profile != nullptr) config.profile->reset();

    const auto start = std::chrono::steady_clock::now();
    PointState state;
    sim::MeasuredPoint measured =
        measure_point(plan.factory, config.stop, plan.trial_root, pool, state, hooks,
                      config.ci_method);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

    if (hooks.cancelled()) {
      // A cancelled measurement is truncated, not deterministic: discard
      // it (even if the cancel raced the point's natural completion -- the
      // cheap uniform policy keeps the flushed document an exact prefix of
      // completed points either way).
      if (config.progress != nullptr) config.progress->end_point();
      point_span.finish();
      result.interrupted = true;
      break;
    }

    point_span.arg("trials", static_cast<std::uint64_t>(measured.ber.trials));
    point_span.arg("bits", static_cast<std::uint64_t>(measured.ber.bits));
    point_span.arg("errors", static_cast<std::uint64_t>(measured.ber.errors));
    point_span.finish();
    if (config.trace != nullptr) {
      // Cumulative committed totals as counter tracks across the sweep.
      traced_trials += measured.ber.trials;
      traced_errors += measured.ber.errors;
      config.trace->counter("engine", "committed_trials",
                             static_cast<double>(traced_trials));
      config.trace->counter("engine", "bit_errors", static_cast<double>(traced_errors));
      const ChannelCache::Stats cs = cache.stats();
      config.trace->counter("channel_cache", "sv_draws",
                             static_cast<double>(cs.sv_draws - cache_before.sv_draws));
    }
    if (config.progress != nullptr) config.progress->end_point();

    PointRecord record;
    record.index = p;
    record.spec = spec;
    record.ber = measured.ber;
    record.metrics = std::move(measured.metrics);
    record.elapsed_s = elapsed.count();
    if (config.profile != nullptr) {
      record.stages = config.profile->merged();
      result.stages.merge(record.stages);
      if (config.trace != nullptr) {
        // Cumulative per-stage totals as a Chrome counter track: the
        // profile's time budget drawn across the sweep's timeline.
        traced_stage_totals.merge(record.stages);
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
          const obs::StageStats& stage = traced_stage_totals.stages[s];
          if (stage.calls == 0) continue;
          config.trace->counter("profile", obs::stage_name(static_cast<obs::Stage>(s)),
                                 static_cast<double>(stage.total_ns) / 1e6);
        }
      }
    }
    for (ResultSink* sink : sinks) sink->point(record);
    result.records.push_back(std::move(record));
    states.push_back(std::move(state));
  }

  run_span.finish();

  if (config.progress != nullptr) config.progress->end_run();
  for (ResultSink* sink : sinks) sink->end(result.info);
  return result;
}

}  // namespace

const PointRecord* SweepResult::find(
    const std::vector<std::pair<std::string, std::string>>& tags) const {
  for (const auto& record : records) {
    bool all = true;
    for (const auto& [key, value] : tags) {
      if (record.spec.tag(key) != value) {
        all = false;
        break;
      }
    }
    if (all) return &record;
  }
  return nullptr;
}

SweepEngine::SweepEngine(SweepConfig config) : config_(config) {
  detail::require(config_.shard_count >= 1, "SweepEngine: shard_count must be >= 1");
  detail::require(config_.shard_index < config_.shard_count,
                  "SweepEngine: shard_index must be < shard_count");
  detail::require(config_.workers <= kMaxWorkers,
                  "SweepEngine: workers must be <= " + std::to_string(kMaxWorkers));
}

SweepResult SweepEngine::run(const ScenarioSpec& scenario,
                             const std::vector<ResultSink*>& sinks) {
  ChannelCache& cache = cache_of(config_);
  const RunMeter meter(cache);
  ThreadPool pool(config_.workers, config_.trace);
  std::vector<PointState> states;
  SweepResult result = run_points(config_, scenario, sinks, pool, cache, states);
  result.counters = meter.finish(pool, states);
  return result;
}

SweepResult SweepEngine::run_named(const std::string& name,
                                   const std::vector<ResultSink*>& sinks) {
  return run(ScenarioRegistry::global().make(name), sinks);
}

SweepResult SweepEngine::run_adaptive(const ScenarioSpec& scenario,
                                      std::size_t extra_trials,
                                      const std::vector<ResultSink*>& sinks) {
  detail::require(config_.shard_count == 1,
                  "run_adaptive: adaptive allocation is incompatible with sharding "
                  "(the allocator must see every point's CI to pick the widest)");

  // One pool and one counter baseline for the base pass and every top-up,
  // so the run's counters cover all of its work.
  ChannelCache& cache = cache_of(config_);
  const RunMeter meter(cache);
  ThreadPool pool(config_.workers, config_.trace);

  // Base pass without sinks: the document is written once, after the whole
  // budget is spent, so a reader never sees half-topped-up points. The
  // points' states stay, and every top-up resumes one.
  std::vector<PointState> states;
  SweepResult result = run_points(config_, scenario, {}, pool, cache, states);

  if (!result.interrupted && extra_trials > 0 && !result.records.empty()) {
    const Rng sweep_root(config_.seed);
    // Top-ups run without the progress meter (its point counts were sized
    // for the base pass); the trace recorder still sees them.
    const PointHooks hooks{config_.trace, nullptr, config_.profile, config_.cancel};

    std::vector<stats::AllocPoint> alloc;
    alloc.reserve(result.records.size());
    for (const PointRecord& rec : result.records) {
      alloc.push_back(stats::AllocPoint{rec.ber.ber, 0.5 * (rec.ber.ci_hi - rec.ber.ci_lo),
                                        rec.ber.trials, false});
    }

    std::size_t remaining = extra_trials;
    while (remaining > 0 && !hooks.cancelled()) {
      const int pick = stats::pick_widest(alloc);
      if (pick < 0) break;  // every point saturated
      stats::AllocPoint& ap = alloc[static_cast<std::size_t>(pick)];
      PointRecord& rec = result.records[static_cast<std::size_t>(pick)];
      PointState& state = states[static_cast<std::size_t>(pick)];

      // Trial-budgeted extension: the error/bit budgets already fired on
      // the base pass, so only the raised trial cap (and a CI target, when
      // one is set) bounds the top-up. The point's state resumes at its
      // committed count and runs only the new trials; the result is what
      // a from-scratch run under the raised cap would commit.
      sim::BerStop stop = config_.stop;
      stop.min_errors = std::numeric_limits<std::size_t>::max();
      stop.max_bits = std::numeric_limits<std::size_t>::max();
      stop.max_trials = ap.trials + stats::next_chunk(ap.trials, remaining);

      obs::Span span(config_.trace, "engine", "topup " + rec.spec.label);
      if (config_.profile != nullptr) config_.profile->reset();
      const auto start = std::chrono::steady_clock::now();
      const PointPlan plan = plan_point(sweep_root, rec.index, rec.spec, cache, config_.trace);
      const std::size_t resumed_at = state.committed;
      sim::MeasuredPoint measured =
          measure_point(plan.factory, stop, plan.trial_root, pool, state, hooks,
                        config_.ci_method);
      const std::size_t grown = state.committed - resumed_at;
      span.arg("resumed_at", static_cast<std::uint64_t>(resumed_at));
      span.arg("grown", static_cast<std::uint64_t>(grown));
      span.finish();
      if (config_.profile != nullptr) {
        // A top-up runs only the trials past the committed prefix; that
        // stage work accumulates on top of the base pass's table.
        const obs::StageTable topup = config_.profile->merged();
        rec.stages.merge(topup);
        result.stages.merge(topup);
      }
      if (hooks.cancelled()) {
        result.interrupted = true;
        break;
      }
      rec.elapsed_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                           .count();

      if (grown == 0) {
        // A CI target (or a degenerate plan) kept the point from growing:
        // never pick it again, the budget moves to the next-widest point.
        ap.saturated = true;
        continue;
      }
      remaining -= std::min(remaining, grown);
      rec.ber = measured.ber;
      rec.metrics = std::move(measured.metrics);
      ap.ber = rec.ber.ber;
      ap.ci_halfwidth = 0.5 * (rec.ber.ci_hi - rec.ber.ci_lo);
      ap.trials = rec.ber.trials;
    }
  }
  result.counters = meter.finish(pool, states);

  for (ResultSink* sink : sinks) sink->begin(result.info);
  for (const PointRecord& rec : result.records) {
    for (ResultSink* sink : sinks) sink->point(rec);
  }
  for (ResultSink* sink : sinks) sink->end(result.info);
  return result;
}

}  // namespace uwb::engine
