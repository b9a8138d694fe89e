// Hot-path throughput bench: end-to-end packets/sec for gen-2 link trials
// across CM0-CM4, measured twice from the same binary -- once
// with the direct O(N*M) convolution kernels (the pre-fast-path baseline,
// via dsp::set_fast_convolve_enabled(false)) and once with the overlap-save
// FFT dispatch enabled. Both numbers land in bench/results/BENCH_hotpath.json
// so the speedup trajectory accumulates PR over PR (CI runs this in fast
// mode and uploads the JSON as an artifact).
//
// Both passes replay identical trial streams (Rng forks of the same root),
// so the packets differ only in which convolution kernel executed. The
// gen-2 sample path (channel, front end, ADC, matched filter) runs direct
// kernels under either policy, so its rows differ only in the channel
// estimator's correlation; perfbench measures both generations end to end.
// (Gen-1 has a single sample path whatever the policy, so it has no
// direct-vs-fast row here; earlier entries in the trajectory file keep its
// history.)

#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dsp/fast_convolve.h"
#include "io/json.h"
#include "sim/scenario.h"
#include "txrx/link.h"

namespace {

using namespace uwb;

struct HotpathRow {
  std::string gen;
  std::string channel;
  std::size_t trials = 0;
  double baseline_pps = 0.0;
  double fast_pps = 0.0;

  [[nodiscard]] double speedup() const {
    return baseline_pps > 0.0 ? fast_pps / baseline_pps : 0.0;
  }
};

std::string channel_name(int cm) { return cm == 0 ? "AWGN" : "CM" + std::to_string(cm); }

/// Runs \p trials deterministic packets and returns packets/sec.
template <typename TrialFn>
double packets_per_sec(std::size_t trials, uint64_t seed, TrialFn&& run_trial) {
  const Rng root(seed);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < trials; ++i) {
    Rng trial_rng = root.fork(i);
    run_trial(trial_rng);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count() > 0.0 ? static_cast<double>(trials) / elapsed.count() : 0.0;
}

HotpathRow measure_gen2(int cm, std::size_t trials, uint64_t seed) {
  txrx::Gen2Link link(sim::gen2_nominal(), seed);
  txrx::TrialOptions options;
  options.cm = cm;
  options.ebn0_db = 14.0;

  HotpathRow row{"gen2", channel_name(cm), trials, 0.0, 0.0};
  auto trial = [&](Rng& rng) { (void)link.run_packet(options, rng); };
  {
    const dsp::FastConvolveGuard direct(false);
    row.baseline_pps = packets_per_sec(trials, seed, trial);
  }
  {
    const dsp::FastConvolveGuard fast(true);
    row.fast_pps = packets_per_sec(trials, seed, trial);
  }
  return row;
}

/// Short git SHA of the working tree, or "unknown" outside a checkout.
std::string git_sha() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string sha;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha.assign(buf);
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  for (const char c : sha) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "unknown";
  }
  return sha.empty() ? "unknown" : sha;
}

std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

io::JsonValue number_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return io::JsonValue::number_literal(buf);
}

io::JsonValue rows_to_json(const std::vector<HotpathRow>& rows) {
  io::JsonValue out = io::JsonValue::array();
  for (const HotpathRow& r : rows) {
    io::JsonValue row = io::JsonValue::object();
    row.set("gen", io::JsonValue::string(r.gen));
    row.set("channel", io::JsonValue::string(r.channel));
    row.set("trials", io::JsonValue::number(static_cast<uint64_t>(r.trials)));
    row.set("baseline_pps", number_fixed(r.baseline_pps, 3));
    row.set("fast_pps", number_fixed(r.fast_pps, 3));
    row.set("speedup", number_fixed(r.speedup(), 2));
    out.push_back(std::move(row));
  }
  return out;
}

/// Appends this run to the trajectory file instead of overwriting it: the
/// document holds a "runs" array with one entry per invocation, keyed by
/// git SHA and UTC date, so the per-PR history survives in the working
/// tree (not just in CI artifacts). A legacy single-run file (top-level
/// "rows") is migrated into the first entry; an unparseable file is
/// replaced rather than crashing the bench.
void append_json(const std::string& path, const std::vector<HotpathRow>& rows) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);

  io::JsonValue runs = io::JsonValue::array();
  if (std::ifstream in(path, std::ios::binary); in) {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const io::JsonValue old = io::parse_json(text.str());
      if (const io::JsonValue* prior = old.find("runs")) {
        for (const io::JsonValue& run : prior->items()) runs.push_back(run);
      } else if (const io::JsonValue* legacy = old.find("rows")) {
        io::JsonValue migrated = io::JsonValue::object();
        migrated.set("sha", io::JsonValue::string("pre-append"));
        migrated.set("date", io::JsonValue::string("unknown"));
        const io::JsonValue* fast = old.find("fast_mode");
        migrated.set("fast_mode", fast != nullptr ? *fast : io::JsonValue::boolean(false));
        migrated.set("rows", *legacy);
        runs.push_back(std::move(migrated));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  (warning: %s was not valid JSON, starting fresh: %s)\n",
                   path.c_str(), e.what());
    }
  }

  io::JsonValue run = io::JsonValue::object();
  run.set("sha", io::JsonValue::string(git_sha()));
  run.set("date", io::JsonValue::string(utc_date()));
  run.set("fast_mode", io::JsonValue::boolean(bench::fast_mode()));
  run.set("rows", rows_to_json(rows));
  runs.push_back(std::move(run));

  io::JsonValue doc = io::JsonValue::object();
  doc.set("bench", io::JsonValue::string("hotpath"));
  doc.set("unit", io::JsonValue::string("packets_per_sec"));
  doc.set("runs", std::move(runs));
  std::ofstream out(path, std::ios::binary);
  out << io::dump_json_pretty(doc) << "\n";
}

}  // namespace

int main() {
  const uint64_t seed = 0x407;
  bench::print_header("HOTPATH", "packets/sec, direct kernels vs FFT fast path", seed);

  const std::size_t gen2_trials = bench::fast_mode() ? 2 : 6;

  std::vector<HotpathRow> rows;
  for (int cm = 0; cm <= 4; ++cm) {
    rows.push_back(measure_gen2(cm, gen2_trials, seed + static_cast<uint64_t>(cm)));
    std::printf("  gen2 %-5s  %8.2f -> %8.2f pkt/s  (%.1fx)\n", rows.back().channel.c_str(),
                rows.back().baseline_pps, rows.back().fast_pps, rows.back().speedup());
  }

  const std::string path = "bench/results/BENCH_hotpath.json";
  append_json(path, rows);
  std::printf("\n(results appended: %s)\n", path.c_str());

  return 0;
}
