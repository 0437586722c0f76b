// Minimal dependency-free JSON support: one reader, parse() (RFC 8259
// grammar, UTF-8 not verified), behind every JSON text the project
// reads back (scand's verdict and solver-outcome stores, scand
// requests, the SARIF validator) and behind the tests that check an
// emitted trace/metrics/report parses; plus format_number, the one
// number format every JSON writer shares.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uchecker::jsonlite {

// One parsed JSON value. Objects preserve insertion order (duplicate
// keys keep the last occurrence, matching most consumers). Numbers are
// held as double; string escapes are decoded (\uXXXX outside the BMP's
// ASCII range is rendered as UTF-8).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(Kind kind) : kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool boolean() const { return bool_; }
  [[nodiscard]] double number() const { return number_; }
  [[nodiscard]] const std::string& str() const { return string_; }

  // Array/object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const {
    return kind_ == Kind::kArray ? items_.size() : members_.size();
  }
  // Array element; nullptr when out of range or not an array.
  [[nodiscard]] const Value* at(std::size_t index) const {
    if (kind_ != Kind::kArray || index >= items_.size()) return nullptr;
    return &items_[index];
  }
  // Object member by key; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Value>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const {
    return members_;
  }

 private:
  friend std::optional<Value> parse(std::string_view);
  friend struct Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;                              // kArray
  std::vector<std::pair<std::string, Value>> members_;    // kObject
};

// Parses exactly one JSON value (surrounding whitespace allowed) into a
// DOM; nullopt on any syntax error (a lone UTF-16 surrogate escape
// included) or nesting beyond 256 levels.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

// Typed member readers for strict parsers: false when `key` is missing
// from `obj` or holds another type, so one bad field fails the parse.
bool get_string(const Value& obj, std::string_view key, std::string& out);
bool get_double(const Value& obj, std::string_view key, double& out);
bool get_bool(const Value& obj, std::string_view key, bool& out);
// A non-negative number, truncated to UInt.
template <typename UInt>
bool get_uint(const Value& obj, std::string_view key, UInt& out) {
  double d = 0.0;
  if (!get_double(obj, key, d) || d < 0.0) return false;
  out = static_cast<UInt>(d);
  return true;
}

// `value` as "%.6g", the one number format of every report and
// observability export; NaN and the infinities (not JSON) render as 0.
[[nodiscard]] std::string format_number(double value);

}  // namespace uchecker::jsonlite
