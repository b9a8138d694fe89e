#include "io/file.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace uwb::io {

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  detail::require(in.good(), what + ": cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  detail::require(!in.bad(), what + ": read from '" + path + "' failed");
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes, const std::string& what) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    detail::require(!ec, what + ": cannot create '" + parent.string() + "': " + ec.message());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  detail::require(out.good(), what + ": cannot open '" + path + "' for writing");
  out << bytes;
  out.close();
  detail::require(!out.fail(), what + ": write to '" + path + "' failed");
}

}  // namespace uwb::io
