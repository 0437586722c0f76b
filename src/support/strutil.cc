#include "support/strutil.h"

#include <cctype>

namespace uchecker::strutil {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f';
}

char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

bool starts_with_i(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

bool ends_with_i(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         iequals(s.substr(s.size() - suffix.size()), suffix);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return out;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  bool negative = false;
  if (s.front() == '+' || s.front() == '-') {
    negative = s.front() == '-';
    s.remove_prefix(1);
    if (s.empty()) return std::nullopt;
  }
  std::int64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return negative ? -value : value;
}

std::int64_t php_intval(std::string_view s) {
  s = trim(s);
  std::size_t i = 0;
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    negative = s[i] == '-';
    ++i;
  }
  std::int64_t value = 0;
  bool any = false;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    value = value * 10 + (s[i] - '0');
    any = true;
  }
  if (!any) return 0;
  return negative ? -value : value;
}

std::string_view file_extension(std::string_view path) {
  const std::string_view base = path_basename(path);
  const std::size_t dot = base.rfind('.');
  if (dot == std::string_view::npos || dot + 1 == base.size()) return {};
  return base.substr(dot + 1);
}

std::string_view path_basename(std::string_view path) {
  // PHP basename() also treats a trailing slash as removable.
  while (!path.empty() && (path.back() == '/' || path.back() == '\\')) {
    path.remove_suffix(1);
  }
  const std::size_t slash = path.find_last_of("/\\");
  if (slash == std::string_view::npos) return path;
  return path.substr(slash + 1);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte >= 0x20) {
          out += c;
          break;
        }
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[byte >> 4];
        out += kHex[byte & 0xf];
      }
    }
  }
  out += '"';
  return out;
}

}  // namespace uchecker::strutil
