#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "io/file.h"
#include "io/json.h"

namespace uwb::obs {

namespace {

/// Per-(thread, recorder) registration cache: two compares on the hot
/// path, the recorder mutex only on first use. Keyed by the recorder's
/// process-unique id, so a recorder reallocated at a stale address can
/// never match a dead cache entry.
struct ThreadCache {
  std::uint64_t recorder_id = 0;
  TraceRecorder::ThreadLog* log = nullptr;
};
thread_local ThreadCache t_cache;

std::atomic<std::uint64_t> g_next_recorder_id{1};

}  // namespace

TraceEvent::Arg trace_arg(std::string key, std::string value) {
  return TraceEvent::Arg{std::move(key), std::move(value), false};
}

TraceEvent::Arg trace_arg(std::string key, std::uint64_t value) {
  return TraceEvent::Arg{std::move(key), std::to_string(value), true};
}

TraceEvent::Arg trace_arg(std::string key, double value) {
  return TraceEvent::Arg{std::move(key), io::format_double(value), true};
}

// ----------------------------------------------------------- TraceRecorder --

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(TraceClock::now()) {}

TraceRecorder::ThreadLog& TraceRecorder::thread_log() {
  if (t_cache.recorder_id == id_) return *t_cache.log;
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = logs_.back().get();
  log->tid = logs_.size() - 1;
  t_cache = ThreadCache{id_, log};
  return *log;
}

void TraceRecorder::name_thread(std::string name) { thread_log().name = std::move(name); }

void TraceRecorder::instant(const char* category, std::string name,
                            std::vector<TraceEvent::Arg> args) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.category = category;
  event.name = std::move(name);
  event.ts_us = now_us();
  event.args = std::move(args);
  record(std::move(event));
}

void TraceRecorder::counter(const char* category, std::string name, double value) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kCounter;
  event.category = category;
  event.ts_us = now_us();
  event.args.push_back(trace_arg(name, value));
  event.name = std::move(name);
  record(std::move(event));
}

std::vector<TraceRecorder::ThreadLog> TraceRecorder::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadLog> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) out.push_back(*log);
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->events.size();
  return n;
}

// -------------------------------------------------------------------- Span --

Span::Span(TraceRecorder* recorder, const char* category, std::string name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  event_.kind = TraceEvent::Kind::kSpan;
  event_.category = category;
  event_.name = std::move(name);
  event_.ts_us = recorder_->now_us();
}

void Span::arg(std::string key, std::uint64_t value) {
  if (recorder_ != nullptr) event_.args.push_back(trace_arg(std::move(key), value));
}

void Span::finish() {
  if (recorder_ == nullptr) return;
  event_.dur_us = recorder_->now_us() - event_.ts_us;
  recorder_->record(std::move(event_));
  recorder_ = nullptr;
}

// ---------------------------------------------------------- Chrome export --

namespace {

io::JsonValue args_object(const std::vector<TraceEvent::Arg>& args) {
  io::JsonValue object = io::JsonValue::object();
  for (const TraceEvent::Arg& arg : args) {
    object.set(arg.key, arg.is_number ? io::JsonValue::number_literal(arg.value)
                                      : io::JsonValue::string(arg.value));
  }
  return object;
}

io::JsonValue event_json(const TraceEvent& event, std::size_t tid) {
  io::JsonValue e = io::JsonValue::object();
  e.set("name", io::JsonValue::string(event.name));
  e.set("cat", io::JsonValue::string(event.category));
  switch (event.kind) {
    case TraceEvent::Kind::kSpan:
      e.set("ph", io::JsonValue::string("X"));
      break;
    case TraceEvent::Kind::kInstant:
      e.set("ph", io::JsonValue::string("i"));
      e.set("s", io::JsonValue::string("t"));  // thread-scoped instant
      break;
    case TraceEvent::Kind::kCounter:
      e.set("ph", io::JsonValue::string("C"));
      break;
  }
  e.set("ts", io::JsonValue::number(event.ts_us));
  if (event.kind == TraceEvent::Kind::kSpan) {
    e.set("dur", io::JsonValue::number(event.dur_us));
  }
  e.set("pid", io::JsonValue::number(1));
  e.set("tid", io::JsonValue::number(static_cast<std::uint64_t>(tid)));
  if (!event.args.empty()) e.set("args", args_object(event.args));
  return e;
}

}  // namespace

std::string write_chrome_trace_json(const TraceRecorder& recorder) {
  const std::vector<TraceRecorder::ThreadLog> logs = recorder.merged();

  io::JsonValue events = io::JsonValue::array();
  {
    io::JsonValue process = io::JsonValue::object();
    process.set("name", io::JsonValue::string("process_name"));
    process.set("ph", io::JsonValue::string("M"));
    process.set("pid", io::JsonValue::number(1));
    process.set("tid", io::JsonValue::number(0));
    io::JsonValue args = io::JsonValue::object();
    args.set("name", io::JsonValue::string("uwb_sweep"));
    process.set("args", std::move(args));
    events.push_back(std::move(process));
  }
  for (const auto& log : logs) {
    io::JsonValue meta = io::JsonValue::object();
    meta.set("name", io::JsonValue::string("thread_name"));
    meta.set("ph", io::JsonValue::string("M"));
    meta.set("pid", io::JsonValue::number(1));
    meta.set("tid", io::JsonValue::number(static_cast<std::uint64_t>(log.tid)));
    io::JsonValue args = io::JsonValue::object();
    args.set("name", io::JsonValue::string(log.name.empty()
                                               ? "thread " + std::to_string(log.tid)
                                               : log.name));
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }

  // Flatten and sort by timestamp (stable: same-ts events keep per-thread
  // emission order) so viewers see a chronological stream.
  std::vector<std::pair<const TraceEvent*, std::size_t>> flat;
  for (const auto& log : logs) {
    for (const TraceEvent& event : log.events) flat.emplace_back(&event, log.tid);
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const auto& a, const auto& b) { return a.first->ts_us < b.first->ts_us; });
  for (const auto& [event, tid] : flat) events.push_back(event_json(*event, tid));

  io::JsonValue doc = io::JsonValue::object();
  doc.set("displayTimeUnit", io::JsonValue::string("ms"));
  doc.set("traceEvents", std::move(events));
  return io::dump_json_pretty(doc) + "\n";
}

void write_chrome_trace(const TraceRecorder& recorder, const std::string& path) {
  io::write_file(path, write_chrome_trace_json(recorder), "write_chrome_trace");
}

}  // namespace uwb::obs
