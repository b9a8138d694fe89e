#pragma once
/// \file fingerprint.h
/// \brief The identity every benchmark record carries. Records compare only
///        when their `machine` parts match: the same CPU, core count,
///        compiler and flags. The code identity (git SHA or, in a checkout
///        without git, a digest of the sources) and the UTC date say which
///        code ran and when.

#include <string>

#include "io/json.h"

namespace perfbench {

struct Fingerprint {
  // machine: records compare only when all of these match
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool native_arch = false;  ///< UWB_NATIVE_ARCH
  bool lto = false;          ///< UWB_ENABLE_LTO

  // code and time
  std::string git_sha;
  std::string source_digest;
  std::string utc_date;
};

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned available_cpus();

/// This binary on this host, now.
[[nodiscard]] Fingerprint current_fingerprint(std::string git_sha, std::string source_digest);

/// {"machine": {...}, "git_sha", "source_digest", "utc_date"}.
[[nodiscard]] uwb::io::JsonValue fingerprint_json(const Fingerprint& fingerprint);

}  // namespace perfbench
