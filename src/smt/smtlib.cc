#include "smt/smtlib.h"

#include <cctype>
#include <unordered_map>

namespace uchecker::smt {
namespace {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kNot: return "not";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kEq: return "=";
    case Op::kDistinct: return "distinct";
    case Op::kIte: return "ite";
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "-";
    case Op::kLt: return "<";
    case Op::kGt: return ">";
    case Op::kLe: return "<=";
    case Op::kGe: return ">=";
    case Op::kConcat: return "str.++";
    case Op::kLength: return "str.len";
    case Op::kIndexOf: return "str.indexof";
    case Op::kReplace: return "str.replace";
    case Op::kSubstr: return "str.substr";
    case Op::kStrToInt: return "str.to_int";
    case Op::kIntToStr: return "str.from_int";
    case Op::kContains: return "str.contains";
    case Op::kSuffixOf: return "str.suffixof";
  }
  return "?";
}

Sort result_sort(Op op, std::initializer_list<Term> args,
                 const TermGraph& graph) {
  switch (op) {
    case Op::kIte:
      return graph.sort(*(args.begin() + 1));
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
    case Op::kMod: case Op::kNeg: case Op::kLength: case Op::kIndexOf:
    case Op::kStrToInt:
      return Sort::kInt;
    case Op::kConcat: case Op::kReplace: case Op::kSubstr:
    case Op::kIntToStr:
      return Sort::kString;
    default:
      return Sort::kBool;
  }
}

// Z3's smt_renaming: a symbol made only of these characters (and not
// only of digits) prints bare.
bool renaming_legal(char c) {
  return c == '.' || c == '_' || c == '\'' || c == '?' || c == '!' ||
         std::isalnum(static_cast<unsigned char>(c)) != 0;
}

// SMT-LIB simple-symbol characters (Z3's is_smt2_simple_symbol_char).
bool smt2_simple(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         std::string_view("~!@$%^&*_-+=<>.?/").find(c) !=
             std::string_view::npos;
}

std::string print_symbol(const std::string& name) {
  bool all_digits = !name.empty();
  bool all_legal = !name.empty();
  bool quote = !name.empty() && name[0] >= '0' && name[0] <= '9';
  for (const char c : name) {
    all_digits = all_digits && c >= '0' && c <= '9';
    all_legal = all_legal && renaming_legal(c);
    quote = quote || !smt2_simple(c);
  }
  if ((all_legal && !all_digits) || !quote) return name;
  std::string out = "|";
  for (const char c : name) {
    if (c == '|' || c == '\\') out += '\\';
    out += c;
  }
  out += '|';
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Z3 4.8.12's string theory holds characters up to this code point.
constexpr unsigned kMaxChar = 0x2ffff;

// Matches a \u{h..h} (one to five hex digits) or \uhhhh escape at the
// start of `s`; on success stores the character and the escape length.
bool match_escape(std::string_view s, unsigned& ch, std::size_t& len) {
  if (s.size() < 3 || s[0] != '\\' || s[1] != 'u') return false;
  if (s[2] == '{') {
    unsigned value = 0;
    for (std::size_t i = 3; i < s.size() && i < 9; ++i) {
      if (s[i] == '}') {
        if (i == 3) return false;
        if (value > kMaxChar) {
          throw TermError(
              "unicode characters outside of byte range are not supported");
        }
        ch = value;
        len = i + 1;
        return true;
      }
      const int d = hex_digit(s[i]);
      if (d < 0 || i == 8) return false;
      value = value * 16 + static_cast<unsigned>(d);
    }
    return false;
  }
  if (s.size() < 6) return false;
  unsigned value = 0;
  for (std::size_t i = 2; i < 6; ++i) {
    const int d = hex_digit(s[i]);
    if (d < 0) return false;
    value = value * 16 + static_cast<unsigned>(d);
  }
  ch = value;
  len = 6;
  return true;
}

// Z3_mk_string's reading of a C string (it stops at the first NUL), then
// Z3's printing of the resulting characters as an SMT-LIB literal.
std::string print_string_literal(std::string_view s) {
  std::string out = "\"";
  const auto emit = [&out](unsigned ch) {
    if (ch < 32 || ch >= 128) {
      static constexpr char kHex[] = "0123456789abcdef";
      std::string digits;
      do {
        digits.insert(digits.begin(), kHex[ch % 16]);
        ch /= 16;
      } while (ch != 0);
      out += "\\u{" + digits + "}";
    } else if (ch == '"') {
      out += "\"\"";
    } else {
      out += static_cast<char>(ch);
    }
  };
  for (std::size_t i = 0; i < s.size() && s[i] != '\0';) {
    unsigned ch = 0;
    std::size_t len = 0;
    if (match_escape(s.substr(i), ch, len)) {
      i += len;
    } else {
      // A plain char: sign-extended, as Z3 stores it.
      ch = static_cast<unsigned>(static_cast<int>(static_cast<signed char>(s[i])));
      ++i;
    }
    emit(ch);
  }
  out += '"';
  return out;
}

}  // namespace

std::string_view sort_name(Sort s) {
  switch (s) {
    case Sort::kBool: return "Bool";
    case Sort::kInt: return "Int";
    case Sort::kString: return "String";
  }
  return "?";
}

Term TermGraph::add(Node node) {
  nodes_.push_back(std::move(node));
  return Term{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

Term TermGraph::bool_val(bool b) {
  return add(Node{Kind::kLiteral, Sort::kBool, Op::kNot, b ? "true" : "false", {}});
}

Term TermGraph::int_val(std::int64_t v) {
  // Magnitude via unsigned arithmetic so INT64_MIN negates cleanly.
  const std::uint64_t mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                  : static_cast<std::uint64_t>(v);
  std::string text = std::to_string(mag);
  if (v < 0) text = "(- " + text + ")";
  return add(Node{Kind::kLiteral, Sort::kInt, Op::kNot, std::move(text), {}});
}

Term TermGraph::string_val(std::string_view s) {
  return add(Node{Kind::kLiteral, Sort::kString, Op::kNot,
                  print_string_literal(s), {}});
}

Term TermGraph::constant(const std::string& raw_name, Sort sort) {
  // Z3 symbols are C strings: a name ends at its first NUL.
  const std::string name(raw_name.c_str());
  const auto key = std::make_pair(name, sort);
  if (const auto it = constants_.find(key); it != constants_.end()) {
    return it->second;
  }
  const Term t =
      add(Node{Kind::kConstant, sort, Op::kNot, print_symbol(name), {}});
  constants_.emplace(key, t);
  return t;
}

Term TermGraph::app(Op op, std::initializer_list<Term> args) {
  return add(Node{Kind::kApp, result_sort(op, args, *this), op, {},
                  std::vector<Term>(args)});
}

void TermGraph::print_node(Term t,
                           const std::unordered_set<std::uint32_t>& bound,
                           std::string& out) const {
  const Node& n = nodes_[t.id];
  if (n.kind != Kind::kApp) {
    out += n.text;
    return;
  }
  // Z3 prints a two-argument distinct as a conjunction with `true`.
  const bool distinct = n.op == Op::kDistinct;
  out += distinct ? "(and (distinct" : "(";
  if (!distinct) out += op_name(n.op);
  for (const Term arg : n.args) {
    out += ' ';
    if (bound.contains(arg.id)) {
      out += sort(arg) == Sort::kBool ? "$x" : "?x";
      out += std::to_string(arg.id);
    } else {
      print_node(arg, bound, out);
    }
  }
  out += distinct ? ") true)" : ")";
}

std::string TermGraph::print(Term t) const {
  // Occurrence counts and a post-order of the distinct subterms. The
  // maps are sized by this term, not by the whole graph, which grows
  // with every sink a scan translates.
  std::unordered_map<std::uint32_t, std::uint32_t> uses;
  std::vector<Term> post_order;
  const auto visit = [&](const auto& self, Term u) -> void {
    for (const Term arg : nodes_[u.id].args) {
      if (uses[arg.id]++ == 0) self(self, arg);
    }
    post_order.push_back(u);
  };
  visit(visit, t);

  std::string out;
  std::unordered_set<std::uint32_t> bound;
  std::size_t lets = 0;
  for (const Term u : post_order) {
    if (u.id == t.id || nodes_[u.id].kind != Kind::kApp || uses[u.id] < 2) {
      continue;
    }
    out += sort(u) == Sort::kBool ? "(let (($x" : "(let ((?x";
    out += std::to_string(u.id);
    out += ' ';
    print_node(u, bound, out);
    out += ")) ";
    bound.insert(u.id);
    ++lets;
  }
  print_node(t, bound, out);
  out.append(lets, ')');
  return out;
}

std::string TermGraph::query(const std::vector<Term>& assertions) const {
  std::string out;
  // Z3's decl_collector: a stack walk over the assertions in order,
  // pushing operands left to right, so the last operand is seen first.
  std::unordered_set<std::uint32_t> seen;
  std::vector<Term> stack;
  for (const Term a : assertions) {
    stack.push_back(a);
    while (!stack.empty()) {
      const Term t = stack.back();
      stack.pop_back();
      if (!seen.insert(t.id).second) continue;
      const Node& n = nodes_[t.id];
      if (n.kind == Kind::kConstant) {
        out += "(declare-fun " + n.text + " () ";
        out += sort_name(n.sort);
        out += ")\n";
      }
      stack.insert(stack.end(), n.args.begin(), n.args.end());
    }
  }
  for (std::size_t i = 0; i < assertions.size(); ++i) {
    const Node& n = nodes_[assertions[i].id];
    // Z3 prints the last assertion only when it is not `true`.
    if (i + 1 == assertions.size() && n.kind == Kind::kLiteral &&
        n.text == "true") {
      break;
    }
    out += "(assert " + print(assertions[i]) + ")\n";
  }
  return out;
}

}  // namespace uchecker::smt
