#pragma once
/// \file trace.h
/// \brief Low-overhead run tracing for the sweep engine: timestamped spans,
///        instants, and counter samples collected into per-thread
///        append-only buffers, merged once at run end, and exportable as
///        Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Design constraints (see docs/observability.md):
///
///  * **No locks on the hot path.** Every recording thread owns one
///    append-only event buffer; the recorder's mutex is taken only when a
///    thread registers (once per thread per recorder) and when the merged
///    view is taken after the run. A thread-local cache makes repeat
///    `thread_log()` lookups two pointer compares.
///  * **Observer only.** A TraceRecorder never touches Rng streams, trial
///    scheduling, or result serialization: sweeps are byte-identical with
///    tracing on or off, for any worker count (tested, CI-checked).
///  * **Null-safe instrumentation.** Every instrumentation point takes a
///    `TraceRecorder*` that may be null; disabled tracing costs a pointer
///    compare per site, no clock reads.
///
/// Merge contract: merged() / write_chrome_trace() may only run once every
/// instrumented thread has quiesced (for a sweep: after SweepEngine::run
/// returned, which tears down the pool).

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uwb::obs {

/// Steady (monotonic) clock all trace timestamps come from.
using TraceClock = std::chrono::steady_clock;

/// One recorded event. Spans are "complete" events (start + duration);
/// instants mark a moment (e.g. a stop-rule decision); counters sample a
/// named value over time (e.g. cumulative committed trials).
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant, kCounter };

  /// One key/value argument. Numeric values keep their rendered text and
  /// set is_number so the Chrome exporter emits them unquoted.
  struct Arg {
    std::string key;
    std::string value;
    bool is_number = false;
  };

  Kind kind = Kind::kSpan;
  const char* category = "";  ///< static-storage category ("engine", "pool", ...)
  std::string name;
  std::uint64_t ts_us = 0;   ///< microseconds since the recorder's epoch
  std::uint64_t dur_us = 0;  ///< spans only
  std::vector<Arg> args;
};

[[nodiscard]] TraceEvent::Arg trace_arg(std::string key, std::string value);
[[nodiscard]] TraceEvent::Arg trace_arg(std::string key, std::uint64_t value);
[[nodiscard]] TraceEvent::Arg trace_arg(std::string key, double value);

/// Collects events from any number of threads. See the file comment for
/// the locking and merge contracts.
class TraceRecorder {
 public:
  TraceRecorder();

  /// One thread's append-only event buffer. tid is the registration index
  /// (stable, dense, what the Chrome export uses as the thread id).
  struct ThreadLog {
    std::size_t tid = 0;
    std::string name;  ///< thread label in trace viewers ("engine", "pool worker 3")
    std::vector<TraceEvent> events;
  };

  /// Microseconds elapsed since this recorder was constructed.
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          TraceClock::now() - epoch_)
                                          .count());
  }

  /// The calling thread's log, registering it on first use. After the
  /// first call (per thread, per recorder) this is lock-free.
  [[nodiscard]] ThreadLog& thread_log();

  /// Labels the calling thread in the exported trace.
  void name_thread(std::string name);

  /// Appends a fully-formed event to the calling thread's log.
  void record(TraceEvent event) { thread_log().events.push_back(std::move(event)); }

  /// Records an instant event stamped now.
  void instant(const char* category, std::string name,
               std::vector<TraceEvent::Arg> args = {});

  /// Records a counter sample stamped now (cumulative values make the
  /// nicest Perfetto counter tracks).
  void counter(const char* category, std::string name, double value);

  /// Snapshot of every registered thread's log, in registration order.
  /// Only valid once every recording thread has quiesced.
  [[nodiscard]] std::vector<ThreadLog> merged() const;

  /// Total event count across all threads (same quiesce contract).
  [[nodiscard]] std::size_t event_count() const;

 private:
  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  TraceClock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span: stamps its start at construction and records one complete
/// event into the recorder at finish()/destruction. A null recorder makes
/// every method a no-op, so instrumentation sites need no branching.
class Span {
 public:
  Span() = default;  ///< inactive
  Span(TraceRecorder* recorder, const char* category, std::string name);
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a count argument (any time before finish()).
  void arg(std::string key, std::uint64_t value);

  /// Stamps the duration and records the event. Idempotent.
  void finish();

 private:
  TraceRecorder* recorder_ = nullptr;
  TraceEvent event_;
};

/// Serializes the recorder's merged events as a Chrome trace-event JSON
/// document: thread-name metadata ("M"), complete spans ("X"), instants
/// ("i"), and counter samples ("C"), sorted by timestamp.
[[nodiscard]] std::string write_chrome_trace_json(const TraceRecorder& recorder);

/// Writes write_chrome_trace_json to \p path (parent directories created).
void write_chrome_trace(const TraceRecorder& recorder, const std::string& path);

}  // namespace uwb::obs
