#pragma once
/// \file fields.h
/// \brief Field lists: every persisted struct names its keys once, in
///        document order, and one Writer and one Reader walk that list.
///
/// A list is an overload `fields(v, s)` in namespace uwb::io, where the
/// visitors live, so argument-dependent lookup finds every list wherever it
/// is defined. `Of<T> auto& s` binds a T or a const T: the writer walks a
/// const struct and the reader a mutable one. A list calls
///
///   v(key, member)                    a required key;
///   v(key, member, conversion)        ... stored through a conversion: a
///                                     Named table, a Via pair (kHexDigest,
///                                     kNumberText, kTagObject, kTagPairs)
///                                     or KeyedBy (vector as keyed object);
///   v.field_if(written, key, member)  written only when `written` holds;
///   v.optional(key, member)           always written;
///   v(key, group([&](auto& g) {..}))  an object with no struct of its own.
///
/// field_if and optional keys may be absent on read. The reader visits a
/// list once per object, in list order, so a list may check a derived
/// value right after the keys it depends on, and a Via read may start from
/// what an earlier key set. Each document's read function picks its
/// Missing policy, and applies its own bounds once read.

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "io/json.h"

namespace uwb::io {

/// One row of an enum's document vocabulary.
template <typename E>
struct Named {
  E value;
  const char* name;
};

template <typename E, std::size_t N>
const char* name_of(const Named<E> (&names)[N], E value) {
  for (const Named<E>& row : names) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// \throws InvalidArgument naming \p document and \p what for an unknown name.
template <typename E, std::size_t N>
E value_of(const Named<E> (&names)[N], const std::string& name, const char* document,
           const char* what) {
  std::string expected;
  for (const Named<E>& row : names) {
    if (name == row.name) return row.value;
    expected += (expected.empty() ? "" : " | ") + std::string(row.name);
  }
  throw InvalidArgument(std::string(document) + ": unknown " + what + " '" + name +
                        "' (expected " + expected + ")");
}

/// A value stored through a function pair instead of a field list. read
/// fills the member in place, so it may start from what an earlier key of
/// the list set. A `required` key must be present even in a document whose
/// missing keys keep their defaults.
template <typename T>
struct Via {
  JsonValue (*write)(const T&);
  void (*read)(const JsonValue&, T&);
  bool required = false;
};

inline JsonValue hex_digest_to_json(const std::uint64_t& digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
  return JsonValue::string(text);
}

inline std::uint64_t hex_digest_from_json(const JsonValue& v) {
  const std::string& text = v.as_string();
  detail::require(text.size() == 16 &&
                      text.find_first_not_of("0123456789abcdef") == std::string::npos,
                  "expected a digest of 16 lowercase hex digits, found '" + text + "'");
  std::uint64_t digest = 0;
  for (const char c : text) digest = digest * 16 + (c <= '9' ? c - '0' : c - 'a' + 10);
  return digest;
}

/// A 64-bit digest stored as exactly 16 lowercase hex digits.
inline constexpr Via<std::uint64_t> kHexDigest{
    hex_digest_to_json,
    [](const JsonValue& v, std::uint64_t& out) { out = hex_digest_from_json(v); }};

/// A number kept as its literal JSON text, so read -> write reproduces it
/// byte for byte (a result's ber, ci95 and metric moments).
inline constexpr Via<std::string> kNumberText{
    [](const std::string& text) { return JsonValue::number_literal(text); },
    [](const JsonValue& v, std::string& out) { out = v.number_text(); }};

/// Ordered key/value string pairs: a point's axis tags.
using Tags = std::vector<std::pair<std::string, std::string>>;

/// Tags as an object, {"key": "value", ...}.
inline constexpr Via<Tags> kTagObject{
    [](const Tags& tags) {
      JsonValue out = JsonValue::object();
      for (const auto& [key, value] : tags) out.set(key, JsonValue::string(value));
      return out;
    },
    [](const JsonValue& v, Tags& out) {
      out.clear();
      for (const auto& [key, value] : v.members()) out.emplace_back(key, value.as_string());
    }};

/// Tags as an array of [key, value] pairs.
inline constexpr Via<Tags> kTagPairs{
    [](const Tags& tags) {
      JsonValue out = JsonValue::array();
      for (const auto& [key, value] : tags) {
        JsonValue pair = JsonValue::array();
        pair.push_back(JsonValue::string(key));
        pair.push_back(JsonValue::string(value));
        out.push_back(std::move(pair));
      }
      return out;
    },
    [](const JsonValue& v, Tags& out) {
      out.clear();
      for (const JsonValue& pair : v.items()) {
        detail::require(pair.items().size() == 2, "a tag must be a [key, value] pair");
        const std::string& key = pair.items()[0].as_string();
        // Tags are written as object keys too (kTagObject), which must be unique.
        for (const auto& tag : out) {
          detail::require(tag.first != key, "duplicate tag '" + key + "'");
        }
        out.emplace_back(key, pair.items()[1].as_string());
      }
    }};

/// A vector stored as an object keyed by each element's \p Key member,
/// the rest of an element through its field list (a point's metrics by
/// name).
template <auto Key>
struct KeyedBy {};

template <auto Key>
inline constexpr KeyedBy<Key> kKeyedBy{};

/// An object with no struct of its own: both visitors run \p list, a
/// generic lambda, as they run a fields() list.
template <typename List>
struct Group {
  List list;
};

template <typename List>
[[nodiscard]] Group<List> group(List list) {
  return Group<List>{std::move(list)};
}

template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/// What a reader does with a key its document omits.
enum class Missing {
  kKeepDefault,  ///< specs: the field keeps the value it started from
  kThrow,        ///< records: throws unless the list marks the key optional
};

/// One document kind: the name its errors carry and its missing-key policy.
struct Document {
  const char* name;
  Missing missing;
};

// ---------------------------------------------------------------- writer ----

struct Writer;

template <typename List>
JsonValue write_object(const List& list);

template <typename S>
JsonValue write_struct(const S& s) {
  return write_object([&](Writer& w) { fields(w, s); });
}

template <typename T>
JsonValue write_value(const T& value) {
  if constexpr (std::is_same_v<T, bool>) return JsonValue::boolean(value);
  else if constexpr (std::is_same_v<T, int>) return JsonValue::number(value);
  else if constexpr (std::is_unsigned_v<T>) return JsonValue::number(std::uint64_t{value});
  else if constexpr (std::is_same_v<T, double>) return JsonValue::number(value);
  else if constexpr (std::is_same_v<T, std::string>) return JsonValue::string(value);
  else if constexpr (std::is_same_v<T, JsonValue>) return value;
  else return write_struct(value);
}

template <typename T>
JsonValue write_value(const std::optional<T>& value) {
  return value.has_value() ? write_value(*value) : JsonValue::null();
}

template <typename T>
JsonValue write_value(const std::vector<T>& values) {
  JsonValue out = JsonValue::array();
  for (const T& value : values) out.push_back(write_value(value));
  return out;
}

template <typename List>
JsonValue write_value(const Group<List>& g) {
  return write_object(g.list);
}

template <typename E, std::size_t N>
JsonValue write_value(E value, const Named<E> (&names)[N]) {
  return JsonValue::string(name_of(names, value));
}

template <typename T>
JsonValue write_value(const T& value, const Via<T>& via) {
  return via.write(value);
}

template <typename T, auto Key>
JsonValue write_value(const std::vector<T>& values, KeyedBy<Key>) {
  JsonValue out = JsonValue::object();
  for (const T& value : values) out.set(value.*Key, write_struct(value));
  return out;
}

/// Builds an object in list order.
struct Writer {
  JsonValue out = JsonValue::object();

  template <typename T, typename... C>
  void operator()(const char* key, const T& value, const C&... conversion) {
    out.set(key, write_value(value, conversion...));
  }
  template <typename T, typename... C>
  void field_if(bool written, const char* key, const T& value, const C&... conversion) {
    if (written) (*this)(key, value, conversion...);
  }
  template <typename T, typename... C>
  void optional(const char* key, const T& value, const C&... conversion) {
    (*this)(key, value, conversion...);
  }
};

/// The object \p list writes: list(writer) names each member.
template <typename List>
JsonValue write_object(const List& list) {
  Writer writer;
  list(writer);
  return std::move(writer.out);
}

// ---------------------------------------------------------------- reader ----

class Reader;

template <typename List>
void read_object(const JsonValue& object, const Document& doc, const char* what,
                 const List& list);

/// \p s with \p object's fields read into it; under kKeepDefault a key the
/// object omits keeps its value in \p s, and a nested struct starts from
/// its type's defaults. \p what names the object in errors (nullptr at a
/// document's top level).
template <typename S>
S read_struct(const JsonValue& object, const Document& doc, const char* what, S s) {
  read_object(object, doc, what, [&](Reader& r) { fields(r, s); });
  return s;
}

template <typename T>
void read_value(const JsonValue& v, const Document& doc, const char* key, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, int>) {
    out = v.as_int();
  } else if constexpr (std::is_unsigned_v<T>) {
    const std::uint64_t n = v.as_uint64();
    detail::require(n <= std::numeric_limits<T>::max(),
                    std::string(doc.name) + ": " + key + ": " + v.number_text() +
                        " is out of range (maximum " +
                        std::to_string(std::numeric_limits<T>::max()) + ")");
    out = static_cast<T>(n);
  } else if constexpr (std::is_same_v<T, double>) {
    out = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = v.as_string();
  } else if constexpr (std::is_same_v<T, JsonValue>) {
    out = v;
  } else {
    out = read_struct(v, doc, key, T{});
  }
}

template <typename T>
void read_value(const JsonValue& v, const Document& doc, const char* key,
                std::optional<T>& out) {
  if (v.is_null()) {
    out.reset();
  } else {
    T value{};
    read_value(v, doc, key, value);
    out = std::move(value);
  }
}

template <typename T>
void read_value(const JsonValue& v, const Document& doc, const char* key,
                std::vector<T>& out) {
  out.clear();
  for (const JsonValue& item : v.items()) read_value(item, doc, key, out.emplace_back());
}

template <typename List>
void read_value(const JsonValue& v, const Document& doc, const char* key, Group<List>& g) {
  read_object(v, doc, key, g.list);
}

template <typename E, std::size_t N>
void read_value(const JsonValue& v, const Document& doc, const char* key, E& out,
                const Named<E> (&names)[N]) {
  out = value_of(names, v.as_string(), doc.name, key);
}

template <typename T>
void read_value(const JsonValue& v, const Document&, const char*, T& out, const Via<T>& via) {
  via.read(v, out);
}

template <typename T, auto Key>
void read_value(const JsonValue& v, const Document& doc, const char* key, std::vector<T>& out,
                KeyedBy<Key>) {
  out.clear();
  for (const auto& [name, item] : v.members()) {
    T& value = out.emplace_back();
    read_value(item, doc, key, value);
    value.*Key = name;
  }
}

/// Whether a conversion makes its key required whatever the document's
/// Missing policy.
template <typename C>
bool required_key(const C&) {
  return false;
}

template <typename T>
bool required_key(const Via<T>& via) {
  return via.required;
}

/// Reads one object's members into the fields its list names.
class Reader {
 public:
  Reader(const JsonValue& object, const Document& doc, const char* what)
      : object_(object), doc_(doc), what_(what) {}

  template <typename T, typename... C>
  void operator()(const char* key, T&& member, const C&... conversion) {
    read(key, /*optional=*/false, member, conversion...);
  }
  template <typename T, typename... C>
  void field_if(bool, const char* key, T&& member, const C&... conversion) {
    read(key, /*optional=*/true, member, conversion...);
  }
  template <typename T, typename... C>
  void optional(const char* key, T&& member, const C&... conversion) {
    read(key, /*optional=*/true, member, conversion...);
  }

  /// \throws InvalidArgument on a member no field of the list claimed.
  void finish() const {
    for (const auto& [key, value] : object_.members()) {
      bool known = false;
      for (const char* name : known_) known = known || key == name;
      detail::require(known, context() + ": unknown key '" + key + "'");
    }
  }

 private:
  template <typename T, typename... C>
  void read(const char* key, bool optional, T& member, const C&... conversion) {
    known_.push_back(key);
    if (const JsonValue* value = object_.find(key)) {
      read_value(*value, doc_, key, member, conversion...);
    } else {
      const bool required = (required_key(conversion) || ...);
      detail::require(optional || (doc_.missing == Missing::kKeepDefault && !required),
                      context() + ": missing key '" + key + "'");
    }
  }

  [[nodiscard]] std::string context() const {
    return what_ != nullptr ? std::string(doc_.name) + ": " + what_ : doc_.name;
  }

  const JsonValue& object_;
  const Document& doc_;
  const char* what_;
  std::vector<const char*> known_;
};

/// Reads \p object through \p list: list(reader) names each member, and
/// a member it does not name throws.
template <typename List>
void read_object(const JsonValue& object, const Document& doc, const char* what,
                 const List& list) {
  Reader reader(object, doc, what);
  list(reader);
  reader.finish();
}

}  // namespace uwb::io
