#pragma once
/// \file cli_args.h
/// \brief The strict flag-value parsers uwb_sweep and uwb_farm share. A bad
///        value throws InvalidArgument, which both CLIs map to their
///        bad-arguments exit code (2).

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/error.h"
#include "engine/thread_pool.h"

namespace uwb::cli {

/// An unsigned integer (strtoull base 0: decimal, 0x hex or 0 octal). The
/// text must start with a digit: strtoull skips leading whitespace and
/// wraps "-1" to 2^64-1, so " -1" would otherwise parse.
inline std::uint64_t parse_u64(const std::string& text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  detail::require(!text.empty() && std::isdigit(static_cast<unsigned char>(text[0])) &&
                      end == text.c_str() + text.size() && errno != ERANGE,
                  std::string("bad value for ") + what + ": '" + text + "'");
  return static_cast<std::uint64_t>(v);
}

inline double parse_positive_double(const std::string& text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  detail::require(!text.empty() && end == text.c_str() + text.size() && errno != ERANGE &&
                      v > 0.0,
                  std::string("bad value for ") + what + ": '" + text + "'");
  return v;
}

/// A worker count: parse_u64 bounded by engine::kMaxWorkers.
inline std::size_t parse_workers(const std::string& text, const char* what) {
  const std::uint64_t v = parse_u64(text, what);
  detail::require(v <= engine::kMaxWorkers,
                  std::string("bad value for ") + what + ": '" + text + "' (at most " +
                      std::to_string(engine::kMaxWorkers) + ")");
  return static_cast<std::size_t>(v);
}

}  // namespace uwb::cli
