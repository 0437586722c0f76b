#include "support/jsonlite.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace uchecker::jsonlite {
namespace {

constexpr int kMaxDepth = 256;

// Appends `cp` (a Unicode scalar value) to `out` as UTF-8.
void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

// Recursive-descent RFC 8259 parser: decodes string escapes and
// materializes values into a DOM.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool hex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return false;
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  bool string(std::string& out) {
    out.clear();
    if (!consume('"')) return false;
    while (!at_end()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return false;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with \uDC00-\uDFFF.
            unsigned low = 0;
            if (!consume('\\') || !consume('u') || !hex4(low) ||
                low < 0xDC00 || low > 0xDFFF) {
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // lone low surrogate
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool number(double& out) {
    const std::size_t start = pos;
    consume('-');
    const auto digits = [this] {
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
      return true;
    };
    if (consume('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (consume('.') && !digits()) return false;
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      if (!digits()) return false;
    }
    out = std::strtod(std::string(text.substr(start, pos - start)).c_str(),
                      nullptr);
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (at_end()) return false;
    const char c = peek();
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.kind_ = Value::Kind::kString;
      return string(out.string_);
    }
    if (c == 't') {
      out.kind_ = Value::Kind::kBool;
      out.bool_ = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind_ = Value::Kind::kBool;
      out.bool_ = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind_ = Value::Kind::kNull;
      return literal("null");
    }
    out.kind_ = Value::Kind::kNumber;
    return number(out.number_);
  }

  bool object(Value& out, int depth) {
    out.kind_ = Value::Kind::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      Value member;
      if (!value(member, depth + 1)) return false;
      // Duplicate keys keep the last occurrence.
      bool replaced = false;
      for (auto& [k, v] : out.members_) {
        if (k == key) {
          v = std::move(member);
          replaced = true;
          break;
        }
      }
      if (!replaced) out.members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array(Value& out, int depth) {
    out.kind_ = Value::Kind::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Value element;
      if (!value(element, depth + 1)) return false;
      out.items_.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
};

std::optional<Value> parse(std::string_view text) {
  Parser p{text};
  Value root;
  if (!p.value(root, 0)) return std::nullopt;
  p.skip_ws();
  if (!p.at_end()) return std::nullopt;
  return root;
}

bool get_string(const Value& obj, std::string_view key, std::string& out) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return false;
  out = v->str();
  return true;
}

bool get_double(const Value& obj, std::string_view key, double& out) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return false;
  out = v->number();
  return true;
}

bool get_bool(const Value& obj, std::string_view key, bool& out) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_bool()) return false;
  out = v->boolean();
  return true;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace uchecker::jsonlite
