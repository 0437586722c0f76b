#include "smt/smtlib.h"

#include <algorithm>
#include <cctype>
#include <charconv>
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

// SMT-LIB simple-symbol characters.
bool simple_symbol_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         std::string_view("~!@$%^&*_-+=<>.?/").find(c) !=
             std::string_view::npos;
}

std::string print_symbol(const std::string& name) {
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0])) == 0 &&
      std::all_of(name.begin(), name.end(), simple_symbol_char)) {
    return name;
  }
  std::string out = "|";
  for (const char c : name) {
    if (c == '|' || c == '\\') out += '\\';
    out += c;
  }
  out += '|';
  return out;
}

}  // namespace

std::string string_literal(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
      if (c == '"') out += '"';
    } else {
      out += "\\u{";
      if (byte >= 0x10) out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
      out += '}';
    }
  }
  out += '"';
  return out;
}

std::string decode_value(std::string_view text) {
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    return std::string(text);
  }
  const std::string_view body = text.substr(1, text.size() - 2);
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body.substr(i, 2) == "\"\"") {
      ++i;
    } else if (body.substr(i, 3) == "\\u{") {
      // One or two hex digits, then the closing brace.
      const char* digits = body.data() + i + 3;
      const char* last = body.data() + std::min(body.size(), i + 5);
      unsigned byte = 0;
      const auto [end, ec] = std::from_chars(digits, last, byte, 16);
      if (ec == std::errc() && end != body.data() + body.size() &&
          *end == '}') {
        out += static_cast<char>(byte);
        i = static_cast<std::size_t>(end - body.data());
        continue;
      }
    }
    out += body[i];
  }
  return out;
}

std::string symbol_name(std::string_view z3_name) {
  std::string out;
  for (std::size_t i = 0; i < z3_name.size(); ++i) {
    if (z3_name[i] == '\\' && i + 1 < z3_name.size()) ++i;
    out += z3_name[i];
  }
  return out;
}

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

Term TermGraph::string_val(std::string_view bytes) {
  return add(Node{Kind::kLiteral, Sort::kString, Op::kNot,
                  string_literal(bytes), {}});
}

Term TermGraph::constant(const std::string& name, Sort sort) {
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
  out += '(';
  out += op_name(n.op);
  for (const Term arg : n.args) {
    out += ' ';
    if (bound.contains(arg.id)) {
      out += sort(arg) == Sort::kBool ? "$x" : "?x";
      out += std::to_string(arg.id);
    } else {
      print_node(arg, bound, out);
    }
  }
  out += ')';
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
  // Declarations in a stack walk over the assertions in order, pushing
  // operands left to right, so the last operand is seen first.
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
  for (const Term a : assertions) out += "(assert " + print(a) + ")\n";
  return out;
}

}  // namespace uchecker::smt
