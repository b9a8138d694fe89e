#pragma once
/// \file file.h
/// \brief Whole-file reads and writes with every step checked -- the one
///        file helper behind the spec, result, manifest, trace, farm and
///        `.cir` stores.

#include <string>

namespace uwb::io {

/// The bytes of \p path.
/// \throws InvalidArgument, prefixed with \p what, when \p path cannot be
///         opened or read.
[[nodiscard]] std::string read_file(const std::string& path, const std::string& what);

/// Writes \p bytes to \p path, replacing it, after creating its parent
/// directories.
/// \throws InvalidArgument, prefixed with \p what, when a directory cannot
///         be created or the file cannot be opened, written or closed.
void write_file(const std::string& path, const std::string& bytes, const std::string& what);

}  // namespace uwb::io
