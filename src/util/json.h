// Minimal JSON value type with a deterministic writer and a strict parser.
//
// Built for the sharded-sweep interchange format (spec/outcome records in
// JSONL shard files), so the priorities are different from a general JSON
// library:
//   * Deterministic output: objects preserve insertion order and numbers
//     have one canonical rendering, so the same value always serializes to
//     the same bytes (merge tooling diffs and hashes serialized records).
//   * Exact round trips: integers are kept as 64-bit integers, and doubles
//     are written with the shortest decimal form that parses back to the
//     identical bit pattern. Non-finite doubles serialize as null (JSON has
//     no NaN/Inf) and parse back as NaN.
//   * Strict parsing: malformed input throws ConfigError with an offset,
//     never yields a half-parsed value.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace specnoc::util {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kDouble,
    kInt,
    kUint,
    kString,
    kArray,
    kObject,
  };

  Json() = default;  ///< null
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}
  Json(double value) : kind_(Kind::kDouble), double_(value) {}
  Json(std::int64_t value) : kind_(Kind::kInt), int_(value) {}
  Json(std::uint64_t value) : kind_(Kind::kUint), uint_(value) {}
  Json(int value) : Json(static_cast<std::int64_t>(value)) {}
  Json(unsigned value) : Json(static_cast<std::uint64_t>(value)) {}
  Json(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  Json(const char* value) : Json(std::string(value)) {}

  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kDouble || kind_ == Kind::kInt ||
           kind_ == Kind::kUint;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw ConfigError when the value has the wrong kind
  /// or an integer conversion would lose information.
  bool as_bool() const;
  double as_double() const;  ///< any number (or null -> NaN)
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  /// An integer narrowed to T, for fields narrower than 64 bits; throws
  /// ConfigError when the value does not fit rather than truncating it.
  template <std::integral T>
  T as_int() const {
    if constexpr (std::is_signed_v<T>) {
      const std::int64_t value = as_i64();
      if (std::in_range<T>(value)) return static_cast<T>(value);
      range_error(std::to_string(value));
    } else {
      const std::uint64_t value = as_u64();
      if (std::in_range<T>(value)) return static_cast<T>(value);
      range_error(std::to_string(value));
    }
  }

  /// Array access.
  const std::vector<Json>& items() const;
  void push_back(Json value);

  /// Object access. set() appends a new key or overwrites an existing one
  /// in place (insertion order is what the writer emits).
  const std::vector<std::pair<std::string, Json>>& members() const;
  void set(std::string key, Json value);
  const Json* find(std::string_view key) const;  ///< nullptr when absent
  const Json& at(std::string_view key) const;    ///< throws when absent

 private:
  [[noreturn]] static void range_error(const std::string& value);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double double_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Serializes compactly (no whitespace) on a single line.
std::string json_write(const Json& value);

/// Parses one JSON document; trailing non-whitespace is an error.
Json json_parse(std::string_view text);

/// The shortest decimal rendering of `value` that strtod parses back to
/// the identical double ("1.26", not "1.2599999999999999"). Exposed for
/// spec keys, which embed doubles and must be canonical.
std::string format_double(double value);

}  // namespace specnoc::util
