#include "smt/smtlib.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <variant>

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
  const Term t = add(Node{Kind::kConstant, sort, Op::kNot, name, {}});
  constants_.emplace(key, t);
  return t;
}

Term TermGraph::app(Op op, std::initializer_list<Term> args) {
  return add(Node{Kind::kApp, result_sort(op, args, *this), op, {},
                  std::vector<Term>(args)});
}

void TermGraph::print_node(
    Term t, const Renaming& renaming,
    const std::unordered_map<std::uint32_t, std::uint32_t>& lets,
    std::string& out) const {
  const Node& n = nodes_[t.id];
  if (n.kind == Kind::kLiteral) {
    out += n.text;
    return;
  }
  if (n.kind == Kind::kConstant) {
    if (const auto it = renaming.find(t.id); it != renaming.end()) {
      out += 'c';
      out += std::to_string(it->second);
    } else {
      out += print_symbol(n.text);
    }
    return;
  }
  out += '(';
  out += op_name(n.op);
  for (const Term arg : n.args) {
    out += ' ';
    if (const auto it = lets.find(arg.id); it != lets.end()) {
      out += sort(arg) == Sort::kBool ? "$x" : "?x";
      out += std::to_string(it->second);
    } else {
      print_node(arg, renaming, lets, out);
    }
  }
  out += ')';
}

void TermGraph::print_term(Term t, const Renaming& renaming,
                           std::string& out) const {
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

  // Lets are numbered in the order they are printed, not by node id, so
  // the text does not depend on what the graph built before this term.
  std::unordered_map<std::uint32_t, std::uint32_t> lets;
  for (const Term u : post_order) {
    if (u.id == t.id || nodes_[u.id].kind != Kind::kApp || uses[u.id] < 2) {
      continue;
    }
    const auto number = static_cast<std::uint32_t>(lets.size());
    out += sort(u) == Sort::kBool ? "(let (($x" : "(let ((?x";
    out += std::to_string(number);
    out += ' ';
    print_node(u, renaming, lets, out);
    out += ")) ";
    lets.emplace(u.id, number);
  }
  print_node(t, renaming, lets, out);
  out.append(lets.size(), ')');
}

std::string TermGraph::print(Term t) const {
  std::string out;
  print_term(t, {}, out);
  return out;
}

std::string TermGraph::write_query(const std::vector<Term>& assertions,
                                   std::vector<std::string>* symbols) const {
  std::string out;
  // Declarations in a stack walk over the assertions in order, pushing
  // operands left to right, so the last operand is seen first. Under
  // renaming, each distinct name gets the next index as it is declared.
  Renaming renaming;
  std::unordered_map<std::string_view, std::uint32_t> index_of_name;
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
        out += "(declare-fun ";
        if (symbols != nullptr) {
          const auto [it, added] = index_of_name.emplace(
              n.text, static_cast<std::uint32_t>(symbols->size()));
          if (added) symbols->push_back(n.text);
          renaming.emplace(t.id, it->second);
          out += 'c';
          out += std::to_string(it->second);
        } else {
          out += print_symbol(n.text);
        }
        out += " () ";
        out += sort_name(n.sort);
        out += ")\n";
      }
      stack.insert(stack.end(), n.args.begin(), n.args.end());
    }
  }
  for (const Term a : assertions) {
    out += "(assert ";
    print_term(a, renaming, out);
    out += ")\n";
  }
  return out;
}

Query TermGraph::query(const std::vector<Term>& assertions) const {
  Query q;
  q.text = write_query(assertions, &q.symbols);
  return q;
}

std::string TermGraph::named_query(const std::vector<Term>& assertions) const {
  return write_query(assertions, nullptr);
}

std::map<std::string, std::string> Query::own_names(
    const std::map<std::string, std::string>& assignments) const {
  std::map<std::string, std::string> out;
  for (const auto& [name, value] : assignments) {
    std::size_t index = symbols.size();
    if (name.size() > 1 && name[0] == 'c') {
      const auto [end, ec] =
          std::from_chars(name.data() + 1, name.data() + name.size(), index);
      if (ec != std::errc() || end != name.data() + name.size()) {
        index = symbols.size();
      }
    }
    out.emplace(index < symbols.size() ? symbols[index] : name, value);
  }
  return out;
}

namespace {

// A known value of an evaluated term: a Bool, an Int or a String's
// bytes. nullopt is the third truth value, unknown.
using Value = std::variant<bool, std::int64_t, std::string>;
using Known = std::optional<Value>;

Known literal_value(Sort sort, const std::string& text) {
  switch (sort) {
    case Sort::kBool:
      return Value{text == "true"};
    case Sort::kString:
      return Value{decode_value(text)};
    case Sort::kInt: {
      // "n" or "(- n)", as int_val() prints it.
      const std::string digits = text.rfind("(- ", 0) == 0
                                     ? "-" + text.substr(3, text.size() - 4)
                                     : text;
      std::int64_t v = 0;
      const auto [end, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), v);
      if (ec != std::errc() || end != digits.data() + digits.size()) {
        return std::nullopt;
      }
      return Value{v};
    }
  }
  return std::nullopt;
}

}  // namespace

Truth TermGraph::evaluate(const std::vector<Term>& assertions, Term pinned,
                          std::string_view bytes) const {
  std::unordered_map<std::uint32_t, Known> memo;
  const auto eval = [&](const auto& self, Term t) -> Known {
    if (const auto it = memo.find(t.id); it != memo.end()) return it->second;
    const Node& n = nodes_[t.id];
    std::vector<Known> args;
    // Each connective decides on its own which operands it needs, so
    // `and`, `or` and `ite` evaluate lazily and stop at a decisive one.
    const auto arg = [&](std::size_t i) { return self(self, n.args[i]); };
    const auto all_args = [&]() -> bool {
      for (std::size_t i = 0; i < n.args.size(); ++i) {
        args.push_back(arg(i));
        if (!args.back().has_value()) return false;
      }
      return true;
    };
    const auto b = [&](std::size_t i) { return std::get<bool>(*args[i]); };
    const auto z = [&](std::size_t i) {
      return std::get<std::int64_t>(*args[i]);
    };
    const auto s = [&](std::size_t i) -> const std::string& {
      return std::get<std::string>(*args[i]);
    };
    Known value;
    if (t.id == pinned.id) {
      value = Value{std::string(bytes)};
    } else if (n.kind == Kind::kLiteral) {
      value = literal_value(n.sort, n.text);
    } else if (n.kind == Kind::kApp) {
      switch (n.op) {
        case Op::kNot:
          if (all_args()) value = Value{!b(0)};
          break;
        case Op::kAnd:
        case Op::kOr: {
          // The value that decides the connective on its own.
          const bool decisive = n.op == Op::kOr;
          bool unknown = false;
          value = Value{!decisive};
          for (std::size_t i = 0; i < n.args.size(); ++i) {
            const Known v = arg(i);
            if (!v.has_value()) {
              unknown = true;
            } else if (std::get<bool>(*v) == decisive) {
              value = Value{decisive};
              unknown = false;
              break;
            }
          }
          if (unknown) value.reset();
          break;
        }
        case Op::kIte: {
          const Known cond = arg(0);
          if (cond.has_value()) {
            value = arg(std::get<bool>(*cond) ? 1 : 2);
          } else {
            const Known then_value = arg(1);
            if (then_value.has_value() && then_value == arg(2)) {
              value = then_value;
            }
          }
          break;
        }
        case Op::kEq:
          if (n.args.size() == 2 && n.args[0].id == n.args[1].id) {
            value = Value{true};
          } else if (all_args()) {
            value = Value{std::all_of(
                args.begin(), args.end(),
                [&](const Known& v) { return v == args[0]; })};
          }
          break;
        case Op::kDistinct:
          if (all_args()) {
            bool distinct = true;
            for (std::size_t i = 0; i < args.size(); ++i) {
              for (std::size_t j = i + 1; j < args.size(); ++j) {
                distinct &= args[i] != args[j];
              }
            }
            value = Value{distinct};
          }
          break;
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
          if (all_args() && !args.empty()) {
            std::int64_t acc = z(0);
            bool overflow = false;
            for (std::size_t i = 1; i < args.size(); ++i) {
              overflow |=
                  n.op == Op::kAdd   ? __builtin_add_overflow(acc, z(i), &acc)
                  : n.op == Op::kSub ? __builtin_sub_overflow(acc, z(i), &acc)
                                     : __builtin_mul_overflow(acc, z(i), &acc);
            }
            if (!overflow) value = Value{acc};
          }
          break;
        case Op::kNeg:
          if (all_args() && z(0) != INT64_MIN) value = Value{-z(0)};
          break;
        case Op::kLt:
        case Op::kGt:
        case Op::kLe:
        case Op::kGe:
          if (n.args.size() == 2 && all_args()) {
            const std::int64_t x = z(0);
            const std::int64_t y = z(1);
            value = Value{n.op == Op::kLt   ? x < y
                          : n.op == Op::kGt ? x > y
                          : n.op == Op::kLe ? x <= y
                                            : x >= y};
          }
          break;
        case Op::kConcat:
          if (all_args()) {
            std::string joined;
            for (std::size_t i = 0; i < args.size(); ++i) joined += s(i);
            value = Value{std::move(joined)};
          }
          break;
        case Op::kLength:
          if (all_args()) value = Value{static_cast<std::int64_t>(s(0).size())};
          break;
        case Op::kContains:
          // (str.contains s t): t occurs in s.
          if (n.args.size() == 2 && all_args()) {
            value = Value{s(0).find(s(1)) != std::string::npos};
          }
          break;
        case Op::kSuffixOf:
          // (str.suffixof s t): s is a suffix of t.
          if (n.args.size() == 2 && all_args()) {
            value = Value{s(1).size() >= s(0).size() &&
                          s(1).compare(s(1).size() - s(0).size(),
                                       s(0).size(), s(0)) == 0};
          }
          break;
        default:
          // div, mod, str.indexof, str.replace, str.substr and the
          // conversions have edge cases (division by zero, empty
          // patterns, out-of-range indices) this evaluator does not
          // model: their value stays unknown.
          break;
      }
    }
    memo.emplace(t.id, value);
    return value;
  };
  bool unknown = false;
  for (const Term a : assertions) {
    const Known v = eval(eval, a);
    if (!v.has_value()) {
      unknown = true;
    } else if (!std::get<bool>(*v)) {
      return Truth::kFalse;
    }
  }
  return unknown ? Truth::kUnknown : Truth::kTrue;
}

}  // namespace uchecker::smt
