// Minimal JSON value type with serializer and parser.
//
// Backs the gNMI-style AFT extraction (mfv::gnmi returns OpenConfig-shaped
// JSON documents) and snapshot persistence. Objects preserve insertion
// order so emitted documents are deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace mfv::util {

/// Resource limits for parsing untrusted input (the service wire protocol
/// feeds attacker-controlled bytes straight into the parser). Depth bounds
/// the parser's recursion so deeply nested documents error out instead of
/// overflowing the stack; max_bytes (0 = unlimited) rejects oversized
/// documents before any work is done.
struct JsonParseLimits {
  size_t max_depth = 128;
  size_t max_bytes = 0;
};

class Json;
using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                  // NOLINT
  Json(bool b) : value_(b) {}                                // NOLINT
  Json(int64_t i) : value_(i) {}                             // NOLINT
  Json(int i) : value_(static_cast<int64_t>(i)) {}           // NOLINT
  Json(uint32_t i) : value_(static_cast<int64_t>(i)) {}      // NOLINT
  Json(uint64_t i) : value_(static_cast<int64_t>(i)) {}      // NOLINT
  Json(double d) : value_(d) {}                              // NOLINT
  Json(std::string s) : value_(std::move(s)) {}              // NOLINT
  Json(const char* s) : value_(std::string(s)) {}            // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}                // NOLINT

  static Json object() {
    Json j;
    j.value_ = std::vector<JsonMember>{};
    return j;
  }
  static Json array() {
    Json j;
    j.value_ = JsonArray{};
    return j;
  }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_array() const { return type() == Type::kArray; }

  bool as_bool() const { return std::get<bool>(value_); }
  int64_t as_int() const {
    if (type() == Type::kDouble) return static_cast<int64_t>(std::get<double>(value_));
    return std::get<int64_t>(value_);
  }
  double as_double() const {
    if (type() == Type::kInt) return static_cast<double>(std::get<int64_t>(value_));
    return std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const std::vector<JsonMember>& members() const {
    return std::get<std::vector<JsonMember>>(value_);
  }

  /// Object member access; creates the member on mutable access.
  Json& operator[](std::string_view key);
  /// Const lookup; returns nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  void push_back(Json value) { as_array().push_back(std::move(value)); }

  /// Serializes; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parses a JSON document; returns nullopt on syntax error. Enforces the
  /// default JsonParseLimits (so pathological nesting can never crash).
  static std::optional<Json> parse(std::string_view text);

  /// Parses untrusted input: like parse(), but returns a Status describing
  /// the first error (kind + byte offset) and applies caller-chosen limits.
  static Result<Json> parse_checked(std::string_view text,
                                    const JsonParseLimits& limits = {});

  bool operator==(const Json& other) const = default;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, JsonArray,
               std::vector<JsonMember>>
      value_;
};

/// Length of `value` as Json::dump() writes it.
size_t json_int_length(int64_t value);

/// Length of `text` as Json::dump() writes it: quoted, with its escapes.
size_t json_string_length(std::string_view text);

}  // namespace mfv::util
