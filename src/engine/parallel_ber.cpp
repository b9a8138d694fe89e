#include "engine/parallel_ber.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>

#include "engine/metric_accumulator.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace uwb::engine {

namespace {

/// Workers fold consecutive executed trials into one trace span apiece so
/// a 100k-trial point emits ~1.5k events instead of 100k. Chunks flush at
/// this size or when the worker leaves its claim loop.
constexpr std::size_t kTraceChunkTrials = 64;

/// Why the stopping rule fired, for the trace's "stop" instant event.
const char* stop_reason(const MetricAccumulator& acc, const sim::BerStop& stop,
                        std::size_t committed) {
  if (stop.target_rel_ci_width > 0.0 && acc.ci_target_met()) return "ci_target";
  if (stop.target_rel_ci_width <= 0.0 && acc.committed_errors() >= stop.min_errors) {
    return "min_errors";
  }
  if (acc.committed_bits() >= stop.max_bits) return "max_bits";
  if (committed >= stop.max_trials) return "max_trials";
  return "unknown";
}

}  // namespace

sim::MeasuredPoint measure_point(const TrialFactory& factory, const sim::BerStop& stop,
                                 const Rng& root, ThreadPool& pool, PointState& state,
                                 const PointHooks& hooks, stats::CiMethod ci_method) {
  // Shared ordered-commit state. Workers race ahead claiming trial indices
  // but outcomes only count once every lower-indexed trial has counted and
  // the stopping rule was still live -- the sequential semantics exactly.
  // It starts from a copy of the caller's state, which is written back only
  // when the measurement finishes.
  struct Shared {
    explicit Shared(const PointState& state)
        : next_claim(state.committed), committed(state.committed), acc(state.acc) {}
    std::mutex mutex;
    std::condition_variable window_open;   // speculation window advanced / stop
    std::condition_variable workers_done;
    std::deque<std::optional<sim::TrialOutcome>> window;  // slot k = trial committed+k
    std::size_t next_claim;
    std::size_t committed;
    MetricAccumulator acc;
    std::size_t executed = 0;  // trials run by this call, discarded ones included
    bool stopped = false;
    std::size_t active_workers = 0;
    std::exception_ptr error;  // first exception a worker threw
  } shared(state);
  shared.acc.set_rule(stop, ci_method, shared.committed);  // throws on a stricter rule

  // Degenerate budgets, or a prefix the rule already stops: nothing to run
  // (matches the serial loop).
  if (!shared.acc.keep_going(shared.committed)) {
    state.acc = shared.acc;
    return shared.acc.finish(shared.committed);
  }

  const std::size_t num_workers = std::max<std::size_t>(1, pool.size());
  // How far past the commit frontier workers may speculate. Large enough to
  // keep every worker busy, small enough to bound discarded work and memory.
  const std::size_t window_cap = std::max<std::size_t>(64, 8 * num_workers);

  shared.active_workers = num_workers;
  for (std::size_t w = 0; w < num_workers; ++w) {
    pool.submit([&factory, &stop, &root, &shared, window_cap, hooks] {
      // Stage profiling covers the whole task -- factory setup included --
      // via the thread-local activation (see obs/profile.h).
      const obs::ScopedStageProfile profile_scope(hooks.profile);
      // A trial that throws must not take the process down from a pool
      // thread: the first exception stops the point like the stopping rule
      // does, and the caller's thread rethrows it once every worker exited.
      try {
        const TrialFn run_trial = factory();
        // Trace chunking: consecutive executed trials fold into one span
        // (see kTraceChunkTrials). Telemetry only -- never touches Rng or
        // commit state, so results are identical with hooks on or off.
        std::uint64_t chunk_start_us = 0;
        std::size_t chunk_first = 0;
        std::size_t chunk_count = 0;
        const auto flush_chunk = [&hooks, &chunk_start_us, &chunk_first, &chunk_count] {
          if (hooks.trace == nullptr || chunk_count == 0) return;
          obs::TraceEvent event;
          event.kind = obs::TraceEvent::Kind::kSpan;
          event.category = "engine";
          event.name = "trials";
          event.ts_us = chunk_start_us;
          event.dur_us = hooks.trace->now_us() - chunk_start_us;
          event.args.push_back(obs::trace_arg("first", static_cast<std::uint64_t>(chunk_first)));
          event.args.push_back(obs::trace_arg("count", static_cast<std::uint64_t>(chunk_count)));
          hooks.trace->record(std::move(event));
          chunk_count = 0;
        };

        for (;;) {
          std::size_t index;
          {
            std::unique_lock<std::mutex> lock(shared.mutex);
            if (hooks.cancelled() && !shared.stopped) {
              // Cancellation rides the normal stop path so peers waiting on
              // the speculation window wake up and exit too. (A signal
              // handler can only set the flag, never notify; the first
              // worker to reach this check does the notifying.)
              shared.stopped = true;
              shared.window_open.notify_all();
            }
            if (shared.stopped || shared.next_claim >= stop.max_trials) break;
            index = shared.next_claim++;
            // Speculation bound: wait until the claim is near the frontier.
            shared.window_open.wait(lock, [&] {
              return shared.stopped || index < shared.committed + window_cap;
            });
            if (shared.stopped) break;
          }

          if (hooks.trace != nullptr && chunk_count == 0) {
            chunk_start_us = hooks.trace->now_us();
            chunk_first = index;
          }

          Rng rng = root.fork(index);
          sim::TrialOutcome out = run_trial(index, rng);

          if (++chunk_count >= kTraceChunkTrials) flush_chunk();
          if (hooks.progress != nullptr) {
            hooks.progress->add_trials(1);
            hooks.progress->add_bits(out.bits);
            hooks.progress->add_errors(out.errors);
          }

          std::lock_guard<std::mutex> lock(shared.mutex);
          ++shared.executed;
          if (shared.stopped) break;
          const std::size_t slot = index - shared.committed;
          if (shared.window.size() <= slot) shared.window.resize(slot + 1);
          shared.window[slot] = std::move(out);
          // Advance the frontier: commit in index order under the rule.
          while (!shared.window.empty() && shared.window.front().has_value()) {
            if (!shared.acc.keep_going(shared.committed)) break;
            shared.acc.commit(*shared.window.front());
            ++shared.committed;
            shared.window.pop_front();
          }
          if (!shared.acc.keep_going(shared.committed)) {
            if (!shared.stopped && hooks.trace != nullptr) {
              hooks.trace->instant(
                  "engine", "stop",
                  {obs::trace_arg("reason",
                                  std::string(stop_reason(shared.acc, stop, shared.committed))),
                   obs::trace_arg("trials", static_cast<std::uint64_t>(shared.committed)),
                   obs::trace_arg("bits", static_cast<std::uint64_t>(shared.acc.committed_bits())),
                   obs::trace_arg("errors",
                                  static_cast<std::uint64_t>(shared.acc.committed_errors()))});
            }
            shared.stopped = true;
          }
          shared.window_open.notify_all();
        }
        flush_chunk();
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.mutex);
        if (!shared.error) shared.error = std::current_exception();
        shared.stopped = true;
      }

      std::lock_guard<std::mutex> lock(shared.mutex);
      if (--shared.active_workers == 0) shared.workers_done.notify_all();
      shared.window_open.notify_all();  // release peers still waiting
    });
  }

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.workers_done.wait(lock, [&] { return shared.active_workers == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
  // All workers exited. Either the rule tripped (stopped) or every index up
  // to max_trials was claimed; drain any committed-prefix stragglers.
  while (!shared.window.empty() && shared.window.front().has_value() &&
         shared.acc.keep_going(shared.committed)) {
    shared.acc.commit(*shared.window.front());
    ++shared.committed;
    shared.window.pop_front();
  }
  if (hooks.cancelled()) return shared.acc.finish(shared.committed);  // truncated
  state.acc = std::move(shared.acc);
  state.committed = shared.committed;
  state.executed += shared.executed;
  return state.acc.finish(state.committed);
}

}  // namespace uwb::engine
