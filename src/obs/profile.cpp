#include "obs/profile.h"

#include <atomic>

#include "common/error.h"
#include "io/fields.h"

namespace uwb::obs {

namespace {

constexpr io::Named<Stage> kStageNames[kStageCount] = {
    {Stage::kTxModulate, "tx_modulate"},       {Stage::kChannelConvolve, "channel_convolve"},
    {Stage::kChannelNoise, "channel_noise"},   {Stage::kRxFrontend, "rx_frontend"},
    {Stage::kAdcQuantize, "adc_quantize"},     {Stage::kSyncAcquire, "sync_acquire"},
    {Stage::kCorrelateRake, "correlate_rake"}, {Stage::kDemodDecide, "demod_decide"},
    {Stage::kFftExec, "fft_exec"},
};

constexpr io::Document kStageTable{"stage table", io::Missing::kThrow};

/// One document row: the stage's name, then its statistics.
template <typename V>
void row_fields(V& v, Stage& stage, io::Of<StageStats> auto& s) {
  v("stage", stage, kStageNames);
  fields(v, s);
}

std::atomic<std::uint64_t> g_next_profiler_id{1};

/// Thread-local cache of the most recent (profiler, accumulator) pairing,
/// so thread_accum() is two compares after the first registration. Same
/// scheme as TraceRecorder's ThreadCache (obs/trace.cpp).
struct ThreadCache {
  std::uint64_t profiler_id = 0;
  StageTable* accum = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

}  // namespace uwb::obs

namespace uwb::io {

template <typename V>
void fields(V& v, Of<obs::StageStats> auto& s) {
  v("calls", s.calls);
  v("total_ns", s.total_ns);
  v("min_ns", s.min_ns);
  v("max_ns", s.max_ns);
  v("samples", s.samples);
}

}  // namespace uwb::io

namespace uwb::obs {

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)].name;
}

io::JsonValue stage_table_to_json(const StageTable& table) {
  io::JsonValue rows = io::JsonValue::array();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (table.stages[i].calls == 0) continue;
    Stage stage = static_cast<Stage>(i);
    rows.push_back(io::write_object([&](auto& w) { row_fields(w, stage, table.stages[i]); }));
  }
  return rows;
}

StageTable stage_table_from_json(const io::JsonValue& value) {
  StageTable table;
  for (const io::JsonValue& row : value.items()) {
    Stage stage{};
    StageStats stats;
    io::read_object(row, kStageTable, "row", [&](auto& r) { row_fields(r, stage, stats); });
    table[stage] = stats;
  }
  return table;
}

void print_stage_table(const StageTable& table, std::FILE* out) {
  std::fprintf(out, "%-18s %10s %12s %11s %11s %11s %12s\n", "stage", "calls",
               "total_ms", "mean_us", "min_us", "max_us", "Msamples/s");
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageStats& s = table.stages[i];
    if (s.calls == 0) continue;
    const double total_ms = static_cast<double>(s.total_ns) / 1e6;
    const double rate =
        s.total_ns > 0
            ? static_cast<double>(s.samples) / (static_cast<double>(s.total_ns) / 1e9) / 1e6
            : 0.0;
    std::fprintf(out, "%-18s %10llu %12.3f %11.2f %11.2f %11.2f %12.2f\n",
                 kStageNames[i].name, static_cast<unsigned long long>(s.calls),
                 total_ms, s.mean_ns() / 1e3,
                 static_cast<double>(s.min_ns) / 1e3,
                 static_cast<double>(s.max_ns) / 1e3, rate);
  }
}

StageProfiler::StageProfiler()
    : id_(g_next_profiler_id.fetch_add(1, std::memory_order_relaxed)) {}

StageTable& StageProfiler::thread_accum() {
  if (t_cache.profiler_id == id_) return *t_cache.accum;
  std::lock_guard<std::mutex> lock(mutex_);
  accums_.push_back(std::make_unique<StageTable>());
  StageTable* accum = accums_.back().get();
  t_cache = ThreadCache{id_, accum};
  return *accum;
}

StageTable StageProfiler::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StageTable out;
  for (const auto& accum : accums_) out.merge(*accum);
  return out;
}

void StageProfiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Zero contents in place: registered threads keep their cached pointers.
  for (const auto& accum : accums_) *accum = StageTable{};
}

}  // namespace uwb::obs
