// Small string helpers shared across the project. All functions are pure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uchecker::strutil {

// Concatenation of views without an intermediate std::string per operand
// (std::string_view has no operator+; arena-era identifiers are views).
[[nodiscard]] inline std::string cat(std::string_view a, std::string_view b) {
  std::string out;
  out.reserve(a.size() + b.size());
  out += a;
  out += b;
  return out;
}
[[nodiscard]] inline std::string cat(std::string_view a, std::string_view b,
                                     std::string_view c) {
  std::string out;
  out.reserve(a.size() + b.size() + c.size());
  out += a;
  out += b;
  out += c;
  return out;
}

// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

// ASCII-only case conversion (PHP identifiers and extensions are ASCII).
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);

[[nodiscard]] bool iequals(std::string_view a, std::string_view b);
[[nodiscard]] bool starts_with_i(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with_i(std::string_view s, std::string_view suffix);

// Splits on a single character; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

// Joins with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

// Replaces every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

// Strict decimal integer parse; rejects trailing garbage.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view s);

// PHP-style leading-numeric-prefix conversion: "42abc" -> 42, "abc" -> 0.
[[nodiscard]] std::int64_t php_intval(std::string_view s);

// The extension of a path ("a/b/c.php" -> "php", no dot). Empty if none.
[[nodiscard]] std::string_view file_extension(std::string_view path);

// The final path component ("a/b/c.php" -> "c.php"), PHP basename() style.
[[nodiscard]] std::string_view path_basename(std::string_view path);

// Escapes a string for embedding in double quotes, as a valid JSON
// string: \" \\ \n \t \r, and \u00XX for every other byte below 0x20.
// Bytes from 0x80 up pass through.
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace uchecker::strutil
