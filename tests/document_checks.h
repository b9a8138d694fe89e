#pragma once
// Test helpers for persisted documents: a round trip of every field with a
// changed value, and the missing-key policy of strict readers. Both walk a
// sample document, so they cover a struct's whole field list without the
// test naming its keys again.

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/json.h"

namespace uwb::test {

/// Object keys, with an array element named by its decimal index.
using Path = std::vector<std::string>;

/// The value at \p path.
inline const io::JsonValue& value_at(const io::JsonValue& doc, const Path& path) {
  const io::JsonValue* at = &doc;
  for (const std::string& key : path) {
    at = at->is_array() ? &at->items()[std::stoul(key)] : &at->at(key);
  }
  return *at;
}

/// "/a/0/b"; with \p any_index, array indices read "*" ("/a/*/b").
inline std::string path_name(const io::JsonValue& doc, const Path& path,
                             bool any_index = false) {
  std::string name;
  for (std::size_t depth = 0; depth < path.size(); ++depth) {
    const bool index = value_at(doc, Path(path.begin(), path.begin() + depth)).is_array();
    name += "/" + (index && any_index ? std::string("*") : path[depth]);
  }
  return name;
}

/// Every path to a scalar, through nested objects and arrays.
inline void leaf_paths(const io::JsonValue& doc, Path& prefix, std::vector<Path>& out) {
  if (doc.is_object() || doc.is_array()) {
    const std::size_t n = doc.is_object() ? doc.members().size() : doc.items().size();
    for (std::size_t i = 0; i < n; ++i) {
      prefix.push_back(doc.is_object() ? doc.members()[i].first : std::to_string(i));
      leaf_paths(doc.is_object() ? doc.members()[i].second : doc.items()[i], prefix, out);
      prefix.pop_back();
    }
  } else if (!prefix.empty()) {
    out.push_back(prefix);
  }
}

/// Every path to an object member, at any depth.
inline void member_paths(const io::JsonValue& doc, Path& prefix, std::vector<Path>& out) {
  if (doc.is_object()) {
    for (const auto& [key, value] : doc.members()) {
      prefix.push_back(key);
      out.push_back(prefix);
      member_paths(value, prefix, out);
      prefix.pop_back();
    }
  } else if (doc.is_array()) {
    for (std::size_t i = 0; i < doc.items().size(); ++i) {
      prefix.push_back(std::to_string(i));
      member_paths(doc.items()[i], prefix, out);
      prefix.pop_back();
    }
  }
}

/// \p doc with the value at \p path replaced by \p value, or dropped when
/// \p value is nullptr.
inline io::JsonValue edited(const io::JsonValue& doc, const Path& path,
                            const io::JsonValue* value, std::size_t depth = 0) {
  if (depth == path.size()) return *value;
  if (doc.is_array()) {
    io::JsonValue out = io::JsonValue::array();
    for (std::size_t i = 0; i < doc.items().size(); ++i) {
      const io::JsonValue& item = doc.items()[i];
      out.push_back(std::to_string(i) == path[depth] ? edited(item, path, value, depth + 1)
                                                     : item);
    }
    return out;
  }
  io::JsonValue out = io::JsonValue::object();
  for (const auto& [key, member] : doc.members()) {
    if (key != path[depth]) out.set(key, member);
    else if (value != nullptr || depth + 1 < path.size())
      out.set(key, edited(member, path, value, depth + 1));
  }
  return out;
}

inline io::JsonValue edited(const io::JsonValue& doc, const Path& path,
                            const io::JsonValue& value) {
  return edited(doc, path, &value);
}

/// What the checks need to know about a document beyond its sample.
struct DocumentShape {
  /// Another valid name for each enum string the sample holds.
  std::map<std::string, std::string> alternates;
  /// Leaves (array indices as "*") the reader checks against the rest of
  /// the document -- a format version, a shard's index, a derived total --
  /// so changing one alone must fail; they are not perturbed.
  std::set<std::string> fixed;
  /// Recomputes derived leaves after another leaf changed (identity when
  /// empty).
  std::function<io::JsonValue(const io::JsonValue&)> rederive;
  /// Member paths (array indices as "*") a strict reader may find absent.
  std::set<std::string> optional;
};

/// A different value for \p leaf: 2v+1 for a number (exact for 64-bit
/// integers), the flipped bool, the alternate name of an enum, another
/// last digit for a hex digest, and a suffix for any other string.
inline io::JsonValue changed_leaf(const io::JsonValue& leaf, const DocumentShape& shape) {
  switch (leaf.kind()) {
    case io::JsonValue::Kind::kNumber: {
      const std::string& text = leaf.number_text();
      if (text.find_first_not_of("0123456789") == std::string::npos) {
        return io::JsonValue::number(std::uint64_t{2 * leaf.as_uint64() + 1});
      }
      return io::JsonValue::number(2.0 * leaf.as_double() + 1.0);
    }
    case io::JsonValue::Kind::kBool: return io::JsonValue::boolean(!leaf.as_bool());
    case io::JsonValue::Kind::kString: {
      std::string text = leaf.as_string();
      if (const auto it = shape.alternates.find(text); it != shape.alternates.end()) {
        return io::JsonValue::string(it->second);
      }
      if (text.size() == 16 && text.find_first_not_of("0123456789abcdef") == std::string::npos) {
        text.back() = text.back() == '0' ? '1' : '0';
        return io::JsonValue::string(text);
      }
      return io::JsonValue::string(text + "_x");
    }
    default: ADD_FAILURE() << "unexpected leaf kind"; return leaf;
  }
}

/// The sample round-trips whole; then, one leaf at a time, a changed value
/// comes back through read and write unchanged. A key the writer emits but
/// the reader drops would come back as its default and fail.
template <typename T, typename Write, typename Read>
void expect_every_field_round_trips(const T& sample, const Write& write, const Read& read,
                                    const DocumentShape& shape = {}) {
  const io::JsonValue doc = write(sample);
  ASSERT_EQ(io::dump_json(write(read(doc))), io::dump_json(doc));
  if constexpr (std::equality_comparable<T>) {
    EXPECT_TRUE(read(doc) == sample);
  }
  std::vector<Path> paths;
  Path prefix;
  leaf_paths(doc, prefix, paths);
  ASSERT_FALSE(paths.empty());
  for (const Path& path : paths) {
    if (shape.fixed.count(path_name(doc, path, true)) != 0) continue;
    SCOPED_TRACE(path_name(doc, path));
    io::JsonValue changed = edited(doc, path, changed_leaf(value_at(doc, path), shape));
    if (shape.rederive) changed = shape.rederive(changed);
    ASSERT_NE(io::dump_json(changed), io::dump_json(doc));
    EXPECT_EQ(io::dump_json(write(read(changed))), io::dump_json(changed));
  }
}

/// Dropping any member the shape does not list as optional fails the read
/// with InvalidArgument; dropping an optional one reads.
template <typename T, typename Write, typename Read>
void expect_missing_keys_throw_unless_optional(const T& sample, const Write& write,
                                               const Read& read, const DocumentShape& shape) {
  const io::JsonValue doc = write(sample);
  std::vector<Path> paths;
  Path prefix;
  member_paths(doc, prefix, paths);
  std::set<std::string> optional_seen;
  for (const Path& path : paths) {
    const std::string pattern = path_name(doc, path, true);
    SCOPED_TRACE(path_name(doc, path));
    const io::JsonValue dropped = edited(doc, path, nullptr);
    if (shape.optional.count(pattern) != 0) {
      optional_seen.insert(pattern);
      EXPECT_NO_THROW((void)read(dropped));
    } else {
      EXPECT_THROW((void)read(dropped), InvalidArgument);
    }
  }
  // Every optional key the shape names must be in the sample, or the
  // check above never ran for it.
  EXPECT_EQ(optional_seen, shape.optional);
}

}  // namespace uwb::test
