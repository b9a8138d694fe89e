#pragma once
/// \file profile.h
/// \brief Stage-level pipeline profiler: per-stage time/throughput
///        attribution inside the link (tx modulate, channel convolve, rx
///        front end, ADC, acquisition, correlate/RAKE, demod, FFT exec)
///        collected into per-thread accumulators and merged once after the
///        pool quiesces.
///
/// Same contract as the trace recorder (obs/trace.h, docs/observability.md):
///
///  * **No locks on the hot path.** Every profiled thread owns one
///    accumulator; the profiler's mutex is taken only at registration
///    (once per thread per profiler), at merge, and at reset. A
///    thread-local cache keyed by a process-unique profiler id makes
///    repeat lookups two compares.
///  * **No clock reads when disabled.** Instrumentation sites construct a
///    `StageTimer` unconditionally; when no profiler is active on the
///    thread it costs one thread-local load and a null compare -- the
///    steady_clock is never touched.
///  * **Observer only.** The profiler never touches Rng streams, trial
///    scheduling, or result serialization: result JSON/CSV is
///    byte-identical with profiling on or off, for any worker count
///    (tested, CI-checked).
///
/// Activation is scoped, not global: `ScopedStageProfile` binds the
/// calling thread's active accumulator for its lifetime (the sweep
/// engine's workers open one scope per point task), so instrumentation
/// deep inside txrx/dsp needs no plumbed-through pointers.
///
/// Merge contract: merged() / reset() may only run once every profiled
/// thread has quiesced (for a sweep: between points, after
/// measure_point_parallel returned -- every accumulator write
/// happens-before the worker-done notification it returned on).

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.h"

namespace uwb::obs {

/// The fixed stage registry. fft_exec is special: plan executions nest
/// inside whichever stage called them (channel convolve, correlate, the
/// spectral monitor), so its time is *also* counted by the enclosing
/// stage -- read it as "of the above, this much was FFT butterflies".
enum class Stage : std::uint8_t {
  kTxModulate = 0,   ///< pulse shaping + modulation (txrx transmit)
  kChannelConvolve,  ///< channel realization and CIR convolution
  kChannelNoise,     ///< AWGN synthesis + addition over the analog waveform
  kRxFrontend,       ///< analog chain: mixer/LNA model, FIRs, sampling
  kAdcQuantize,      ///< flash / SAR conversion of the sampled waveform
  kSyncAcquire,      ///< acquisition + channel estimation
  kCorrelateRake,    ///< matched filtering and RAKE combining
  kDemodDecide,      ///< despread/demap/MLSE + error accounting
  kFftExec,          ///< FftPlan executions (nested; overlaps the above)
  kCount
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

/// Stable snake_case stage name ("tx_modulate", ...), used by the
/// manifest stage table, the stderr table, and perfbench's stage.<name>_ms
/// rows.
[[nodiscard]] const char* stage_name(Stage stage);

/// One stage's accumulated scope statistics.
struct StageStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< meaningful only when calls > 0
  std::uint64_t max_ns = 0;
  std::uint64_t samples = 0;  ///< samples (or bits, for demod) processed

  void add(std::uint64_t ns, std::uint64_t n) {
    if (calls == 0 || ns < min_ns) min_ns = ns;
    if (ns > max_ns) max_ns = ns;
    ++calls;
    total_ns += ns;
    samples += n;
  }

  void merge(const StageStats& other) {
    if (other.calls == 0) return;
    if (calls == 0 || other.min_ns < min_ns) min_ns = other.min_ns;
    if (other.max_ns > max_ns) max_ns = other.max_ns;
    calls += other.calls;
    total_ns += other.total_ns;
    samples += other.samples;
  }

  [[nodiscard]] double mean_ns() const {
    return calls > 0 ? static_cast<double>(total_ns) / static_cast<double>(calls) : 0.0;
  }

  [[nodiscard]] bool operator==(const StageStats&) const = default;
};

/// A full per-stage table (one StageStats per registry entry).
struct StageTable {
  std::array<StageStats, kStageCount> stages{};

  [[nodiscard]] StageStats& operator[](Stage s) {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const StageStats& operator[](Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }

  void merge(const StageTable& other) {
    for (std::size_t i = 0; i < kStageCount; ++i) stages[i].merge(other.stages[i]);
  }

  [[nodiscard]] bool empty() const {
    for (const StageStats& s : stages) {
      if (s.calls > 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool operator==(const StageTable&) const = default;
};

/// Serialization for the run manifest and the bench: an array of
/// {stage, calls, total_ns, min_ns, max_ns, samples} rows, zero-call
/// stages skipped. Round-trips exactly (skipped rows parse back as
/// default-initialized).
[[nodiscard]] io::JsonValue stage_table_to_json(const StageTable& table);
[[nodiscard]] StageTable stage_table_from_json(const io::JsonValue& value);

/// Human-readable table (stage, calls, total ms, mean us, min/max us,
/// samples/s) to \p out; zero-call stages skipped.
void print_stage_table(const StageTable& table, std::FILE* out);

class StageProfiler;

namespace detail_profile {
/// The calling thread's active accumulator (null = profiling disabled on
/// this thread). Bound by ScopedStageProfile; read by every StageTimer.
inline thread_local StageTable* t_active_accum = nullptr;
}  // namespace detail_profile

/// Collects per-thread StageTables; see the file comment for the locking
/// and merge contracts.
class StageProfiler {
 public:
  StageProfiler();

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// The calling thread's accumulator, registering it on first use. After
  /// the first call (per thread, per profiler) this is lock-free.
  [[nodiscard]] StageTable& thread_accum();

  /// Sum over every registered thread's accumulator. Only valid once
  /// every profiled thread has quiesced.
  [[nodiscard]] StageTable merged() const;

  /// Zeroes every registered accumulator (same quiesce contract). The
  /// engine resets between points so each point's table carries true
  /// per-point min/max instead of cumulative-snapshot deltas.
  void reset();

 private:
  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<StageTable>> accums_;
};

/// RAII activation: binds \p profiler's per-thread accumulator as the
/// calling thread's active one for the scope's lifetime (null profiler =
/// deactivates). Restores the previous binding on exit, so scopes nest.
class ScopedStageProfile {
 public:
  explicit ScopedStageProfile(StageProfiler* profiler)
      : previous_(detail_profile::t_active_accum) {
    detail_profile::t_active_accum =
        profiler != nullptr ? &profiler->thread_accum() : nullptr;
  }
  ~ScopedStageProfile() { detail_profile::t_active_accum = previous_; }

  ScopedStageProfile(const ScopedStageProfile&) = delete;
  ScopedStageProfile& operator=(const ScopedStageProfile&) = delete;

 private:
  StageTable* previous_;
};

/// RAII stage scope: accumulates one (duration, samples) observation into
/// the calling thread's active accumulator. With no active profiler the
/// constructor is one thread-local load + null compare and the clock is
/// never read.
class StageTimer {
 public:
  explicit StageTimer(Stage stage, std::uint64_t samples = 0) {
    StageTable* accum = detail_profile::t_active_accum;
    if (accum == nullptr) return;
    accum_ = accum;
    stage_ = stage;
    samples_ = samples;
    start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() { finish(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Adds to the samples-processed count (any time before finish()).
  void add_samples(std::uint64_t n) {
    if (accum_ != nullptr) samples_ += n;
  }

  /// Stamps the duration and commits the observation. Idempotent.
  void finish() {
    if (accum_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    (*accum_)[stage_].add(static_cast<std::uint64_t>(ns), samples_);
    accum_ = nullptr;
  }

 private:
  StageTable* accum_ = nullptr;
  Stage stage_ = Stage::kTxModulate;
  std::uint64_t samples_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace uwb::obs
