// SMT-LIB 2 text for the solver, built without Z3.
//
// TermGraph is an append-only DAG of sorted terms over the fragment the
// translation needs: Bool, Int and String constants and literals, the
// core connectives, linear integer arithmetic and the string operations
// of paper Table II. A Term is a handle into the graph; reusing a handle
// shares the node, and query() prints a shared node once through `let`,
// so a hash-consed heap graph never expands into a tree.
//
// The printed form is the one Z3 4.8.12's benchmark printer gives the
// same terms, so a query parses into the formula it did when queries
// were built as Z3 terms and re-serialized:
//   - declarations in Z3's visit order (right-to-left preorder over the
//     assertions, in assertion order);
//   - symbols |quoted| under Z3's renaming rules;
//   - string literals decoded the way Z3_mk_string decodes a C string
//     (\u{...} and \uXXXX escapes, bytes >= 0x80 sign-extended) and
//     printed with Z3's \u{...} escapes;
//   - a binary distinct printed as (and (distinct a b) true), and a
//     last assertion of `true` left out.
// Only `let` placement differs. Z3 chose it from live reference counts
// inside the building context; here a term gets a `let` exactly when it
// occurs more than once in its assertion, bound in post-order, so term
// order is fixed by the printed text alone.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

namespace uchecker::smt {

enum class Sort : std::uint8_t { kBool, kInt, kString };

[[nodiscard]] std::string_view sort_name(Sort s);

// Operators, printed with their SMT-LIB names.
enum class Op : std::uint8_t {
  kNot, kAnd, kOr, kEq, kDistinct, kIte,
  kAdd, kSub, kMul, kDiv, kMod, kNeg, kLt, kGt, kLe, kGe,
  kConcat, kLength, kIndexOf, kReplace, kSubstr, kStrToInt, kIntToStr,
  kContains, kSuffixOf,
};

// A string literal Z3 rejects: an escape naming a character above the
// string theory's range. The message is Z3 4.8.12's.
class TermError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Handle to a node of one TermGraph.
struct Term {
  std::uint32_t id = 0;
};

class TermGraph {
 public:
  [[nodiscard]] Term bool_val(bool b);
  [[nodiscard]] Term int_val(std::int64_t v);
  // Throws TermError for an escape above \u{2ffff}.
  [[nodiscard]] Term string_val(std::string_view s);
  // One node per (name, sort): a symbol always denotes one value.
  [[nodiscard]] Term constant(const std::string& name, Sort sort);
  // The result sort follows from `op`; an ite takes its branches' sort.
  [[nodiscard]] Term app(Op op, std::initializer_list<Term> args);

  [[nodiscard]] Sort sort(Term t) const { return nodes_[t.id].sort; }

  // One term as SMT-LIB text, with `let`s for its repeated subterms.
  [[nodiscard]] std::string print(Term t) const;

  // A complete query: the declarations of every constant the assertions
  // mention, then one (assert ...) per assertion, in order.
  [[nodiscard]] std::string query(const std::vector<Term>& assertions) const;

 private:
  enum class Kind : std::uint8_t { kLiteral, kConstant, kApp };
  struct Node {
    Kind kind = Kind::kLiteral;
    Sort sort = Sort::kBool;
    Op op = Op::kNot;        // kApp only
    std::string text;        // printed literal or symbol
    std::vector<Term> args;  // kApp only
  };

  Term add(Node node);
  void print_node(Term t, const std::unordered_set<std::uint32_t>& bound,
                  std::string& out) const;

  std::vector<Node> nodes_;
  std::map<std::pair<std::string, Sort>, Term> constants_;
};

}  // namespace uchecker::smt
