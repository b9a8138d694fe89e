#include "obs/progress.h"

#include <algorithm>
#include <cinttypes>

namespace uwb::obs {

namespace {

/// "12.3k" / "4.56M" style throughput rendering.
std::string humanize(double v) {
  char buf[32];
  if (v >= 1e6) std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  else std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

/// Minimal JSON string escaping for point labels in heartbeat lines.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

ProgressMeter::ProgressMeter(Options options) : options_(options) {
  out_ = options_.out != nullptr ? options_.out : stderr;
  options_.interval_s = std::max(options_.interval_s, 0.01);
}

ProgressMeter::~ProgressMeter() { end_run(); }

void ProgressMeter::begin_run(std::size_t total_points) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;  // one run per meter
    running_ = true;
    stop_ = false;
  }
  points_total_.store(total_points, std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
  last_tick_ = start_;
  last_trials_ = 0;
  if (options_.format == Options::Format::kJson) {
    std::fprintf(out_, "{\"progress\":\"start\",\"points_total\":%zu,\"interval_s\":%g}\n",
                 total_points, options_.interval_s);
  } else {
    std::fprintf(out_, "[progress] sweep started: %zu point(s), heartbeat %.2gs\n",
                 total_points, options_.interval_s);
  }
  std::fflush(out_);
  thread_ = std::thread([this] { heartbeat_loop(); });
}

void ProgressMeter::begin_point(std::size_t index, const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string next = std::to_string(index);
  next.insert(next.begin(), '#');
  next += ' ';
  next += label;
  label_ = std::move(next);
}

void ProgressMeter::end_run() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    running_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  print_line(true);
}

void ProgressMeter::heartbeat_loop() {
  const auto interval = std::chrono::duration<double>(options_.interval_s);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
    lock.unlock();
    print_line(false);
    lock.lock();
  }
}

void ProgressMeter::print_line(bool final_line) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  const std::size_t total = points_total_.load(std::memory_order_relaxed);
  const std::size_t done = points_done_.load(std::memory_order_relaxed);
  const std::uint64_t trials = trials_.load(std::memory_order_relaxed);
  const std::uint64_t errors = errors_.load(std::memory_order_relaxed);

  std::string label;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    label = label_;
  }

  const bool json = options_.format == Options::Format::kJson;

  if (final_line) {
    const double avg_rate = elapsed > 0 ? static_cast<double>(trials) / elapsed : 0.0;
    if (json) {
      std::fprintf(out_,
                   "{\"progress\":\"done\",\"points_done\":%zu,\"points_total\":%zu,"
                   "\"trials\":%" PRIu64 ",\"errors\":%" PRIu64
                   ",\"elapsed_s\":%.3f,\"trials_per_s\":%.1f}\n",
                   done, total, trials, errors, elapsed, avg_rate);
    } else {
      std::fprintf(out_,
                   "[progress] done: %zu/%zu points | %" PRIu64 " trials | %" PRIu64
                   " errors | %.1fs (%s trials/s)\n",
                   done, total, trials, errors, elapsed, humanize(avg_rate).c_str());
    }
    std::fflush(out_);
    return;
  }

  // Windowed throughput: trials since the previous heartbeat.
  const double window = std::chrono::duration<double>(now - last_tick_).count();
  const double rate =
      window > 0 ? static_cast<double>(trials - last_trials_) / window : 0.0;
  last_trials_ = trials;
  last_tick_ = now;

  const bool eta_known = done >= 1 && done < total;
  const double eta_s =
      eta_known ? elapsed / static_cast<double>(done) * static_cast<double>(total - done)
                : 0.0;

  if (json) {
    char eta_json[32];
    if (eta_known) std::snprintf(eta_json, sizeof eta_json, "%.0f", eta_s);
    else std::snprintf(eta_json, sizeof eta_json, "null");
    std::fprintf(out_,
                 "{\"progress\":\"tick\",\"points_done\":%zu,\"points_total\":%zu,"
                 "\"point\":\"%s\",\"trials\":%" PRIu64 ",\"trials_per_s\":%.1f,"
                 "\"errors\":%" PRIu64 ",\"elapsed_s\":%.3f,\"eta_s\":%s}\n",
                 done, total, json_escape(label).c_str(), trials, rate, errors, elapsed,
                 eta_json);
    std::fflush(out_);
    return;
  }

  char eta[32];
  if (eta_known) {
    std::snprintf(eta, sizeof eta, "%.0fs", eta_s);
  } else {
    std::snprintf(eta, sizeof eta, "--");
  }

  std::fprintf(out_,
               "[progress] %zu/%zu points | %" PRIu64 " trials (%s/s) | %" PRIu64
               " errors | elapsed %.1fs | eta %s | %s\n",
               done, total, trials, humanize(rate).c_str(), errors, elapsed, eta,
               label.c_str());
  std::fflush(out_);
}

}  // namespace uwb::obs
