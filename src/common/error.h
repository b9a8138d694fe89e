#pragma once
/// \file error.h
/// \brief Exception hierarchy for the UWB library.
///
/// Construction-time parameter validation throws; per-sample hot paths are
/// noexcept by design. Catch uwb::Error to handle anything thrown by the
/// library.

#include <stdexcept>
#include <string>

namespace uwb {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A constructor or setter received an out-of-range / inconsistent argument.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An operation was attempted in a state that does not permit it
/// (e.g. demodulating before acquisition has locked).
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error(what) {}
};

/// Input buffers have mismatched or unusable dimensions.
class SizeError : public Error {
 public:
  explicit SizeError(const std::string& what) : Error(what) {}
};

namespace detail {

/// Throws InvalidArgument with \p msg when \p cond is false.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

/// Throws InvalidArgument with \p msg; out of line, so a literal check
/// inlines as one compare and a call that never returns.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_invalid_argument(const char* msg) {
  throw InvalidArgument(msg);
}

/// The literal-message form: a passing check builds no std::string (hot
/// paths check per pulse or per block).
inline void require(bool cond, const char* msg) {
  if (!cond) throw_invalid_argument(msg);
}

}  // namespace detail
}  // namespace uwb
