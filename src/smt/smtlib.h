// SMT-LIB 2 text for the solver, built without Z3.
//
// TermGraph is an append-only DAG of sorted terms over the fragment the
// translation needs: Bool, Int and String constants and literals, the
// core connectives, linear integer arithmetic and the string operations
// of paper Table II. A Term is a handle into the graph; reusing a handle
// shares the node, and query() prints a shared node once through `let`,
// so a hash-consed heap graph never expands into a tree.
//
// Strings cross the solver boundary as bytes, in one encoding used in
// both directions. string_literal() prints a byte string as an SMT-LIB
// literal: a printable ASCII byte as itself (a `"` doubled) and every
// other byte, the backslash included, as \u{h}. The checker renders
// model strings with the same function, and decode_value() is its
// exact inverse. A symbol prints bare when it is an SMT-LIB simple
// symbol and between bars otherwise. (Z3 reads a query as a C string,
// so a symbol holding a NUL byte fails to parse: the check comes back
// kUnknown.)
//
// Declarations come in one fixed order, a right-to-left preorder over
// the assertions, in assertion order (Z3's own visit order; the
// sequence solver's answers depend on declaration order). A term gets
// a `let` exactly when it occurs more than once in its assertion,
// bound in post-order, so term order is fixed by the printed text
// alone.
//
// Canonical form: query() renames the constants c0, c1, ... in
// declaration order (one name per distinct symbol, whatever its sort)
// and numbers the `let`s of each assertion in print order, so the text
// depends only on the query's shape. Two queries that are equal up to
// a renaming of their symbols print byte-identical text, whatever else
// the graph holds; anything else that differs (a literal, a sort, an
// operator, which occurrences share one symbol) still shows in the
// text. The solver query cache keys on that text, and Query::own_names
// maps a model of it back to the query's own symbols.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
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

// `bytes` as an SMT-LIB string literal, e.g. "a""b\u{0}\u{5c}".
[[nodiscard]] std::string string_literal(std::string_view bytes);

// The inverse of string_literal(). Text that is not a string literal (a
// numeral, a boolean) comes back unchanged, as does an escape above
// \u{ff}: Z3's spelling of a character outside the byte range.
[[nodiscard]] std::string decode_value(std::string_view text);

// The symbol a printed name denotes: Z3 keeps the backslash escapes of
// a |quoted| symbol in its name, and this drops them.
[[nodiscard]] std::string symbol_name(std::string_view z3_name);

// Handle to a node of one TermGraph.
struct Term {
  std::uint32_t id = 0;
};

// A query in canonical form (see above) and the names it renamed.
struct Query {
  std::string text;
  // symbols[i] is the symbol the text declares as c<i>.
  std::vector<std::string> symbols;

  // A model of `text` under the query's own names: a binding of c<i>
  // becomes a binding of symbols[i]; any other name stays.
  [[nodiscard]] std::map<std::string, std::string> own_names(
      const std::map<std::string, std::string>& assignments) const;
};

// A three-valued (Kleene) truth value.
enum class Truth : std::uint8_t { kFalse, kTrue, kUnknown };

class TermGraph {
 public:
  [[nodiscard]] Term bool_val(bool b);
  [[nodiscard]] Term int_val(std::int64_t v);
  [[nodiscard]] Term string_val(std::string_view bytes);
  // One node per (name, sort): a symbol always denotes one value.
  [[nodiscard]] Term constant(const std::string& name, Sort sort);
  // The result sort follows from `op`; an ite takes its branches' sort.
  [[nodiscard]] Term app(Op op, std::initializer_list<Term> args);

  [[nodiscard]] Sort sort(Term t) const { return nodes_[t.id].sort; }

  // One term as SMT-LIB text under its own symbol names, with `let`s
  // for its repeated subterms.
  [[nodiscard]] std::string print(Term t) const;

  // A complete query in canonical form: the declarations of every
  // constant the assertions mention, then one (assert ...) per
  // assertion, in order.
  [[nodiscard]] Query query(const std::vector<Term>& assertions) const;

  // The same query under the symbols' own names, for a reader.
  [[nodiscard]] std::string named_query(
      const std::vector<Term>& assertions) const;

  // The Kleene value of the conjunction of `assertions` when the String
  // term `pinned` has the value `bytes` and every other constant is
  // unknown. Each operator is exact on known operands: `and` is false
  // when one conjunct is, `or` true when one disjunct is, and `ite`
  // takes the branch its known condition picks. A constant other than
  // `pinned`, an operator the evaluator does not implement, and integer
  // overflow give kUnknown, so kFalse means the conjunction is false
  // for every value of the other constants.
  [[nodiscard]] Truth evaluate(const std::vector<Term>& assertions,
                               Term pinned, std::string_view bytes) const;

 private:
  enum class Kind : std::uint8_t { kLiteral, kConstant, kApp };
  struct Node {
    Kind kind = Kind::kLiteral;
    Sort sort = Sort::kBool;
    Op op = Op::kNot;        // kApp only
    std::string text;        // printed literal, or the symbol's own name
    std::vector<Term> args;  // kApp only
  };
  // Constant node id -> canonical index c<i>; empty prints own names.
  using Renaming = std::unordered_map<std::uint32_t, std::uint32_t>;

  Term add(Node node);
  void print_term(Term t, const Renaming& renaming, std::string& out) const;
  void print_node(Term t, const Renaming& renaming,
                  const std::unordered_map<std::uint32_t, std::uint32_t>& lets,
                  std::string& out) const;
  std::string write_query(const std::vector<Term>& assertions,
                          std::vector<std::string>* symbols) const;

  std::vector<Node> nodes_;
  std::map<std::pair<std::string, Sort>, Term> constants_;
};

}  // namespace uchecker::smt
