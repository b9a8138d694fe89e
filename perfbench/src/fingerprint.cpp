#include "fingerprint.h"

#include <sched.h>

#include <ctime>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

bool cmake_on(const char* value) {
  const std::string v = value;
  return v == "ON" || v == "1" || v == "TRUE" || v == "YES";
}

}  // namespace

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

Fingerprint current_fingerprint(std::string git_sha, std::string source_digest) {
  Fingerprint f;
  f.cpu_model = cpu_model();
  f.nproc = available_cpus();
#if defined(__clang__)
  f.compiler = std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("g++ ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.cxx_flags = PERFBENCH_CXX_FLAGS;
  f.native_arch = cmake_on(PERFBENCH_NATIVE_ARCH);
  f.lto = cmake_on(PERFBENCH_ENABLE_LTO);
  f.git_sha = std::move(git_sha);
  f.source_digest = std::move(source_digest);

  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  f.utc_date = buffer;
  return f;
}

uwb::io::JsonValue fingerprint_json(const Fingerprint& f) {
  using uwb::io::JsonValue;
  JsonValue machine = JsonValue::object();
  machine.set("cpu_model", JsonValue::string(f.cpu_model));
  machine.set("nproc", JsonValue::number(static_cast<std::uint64_t>(f.nproc)));
  machine.set("compiler", JsonValue::string(f.compiler));
  machine.set("build_type", JsonValue::string(f.build_type));
  machine.set("cxx_flags", JsonValue::string(f.cxx_flags));
  machine.set("native_arch", JsonValue::boolean(f.native_arch));
  machine.set("lto", JsonValue::boolean(f.lto));
  JsonValue doc = JsonValue::object();
  doc.set("machine", std::move(machine));
  doc.set("git_sha", JsonValue::string(f.git_sha));
  doc.set("source_digest", JsonValue::string(f.source_digest));
  doc.set("utc_date", JsonValue::string(f.utc_date));
  return doc;
}

}  // namespace perfbench
