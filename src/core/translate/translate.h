// Constraint translation to SMT-LIB (paper §III-D, Table II).
//
// trl() recursively translates PHP-semantics heap-graph values into
// sorted SMT-LIB terms (smt/smtlib.h), mitigating four semantic gaps the
// paper identifies:
//   i.   different operation names     (PHP "." -> str.++, ...)
//   ii.  parameter order / arity       (str_replace, substr, ...)
//   iii. PHP's dynamic typing          (the coercion rules of Table II's
//                                       Logical Not / And / Equal rows)
//   iv.  operations missing in Z3      (fresh symbols of the expected
//                                       sort — the paper's exception rule)
//
// Every heap-graph object translates to at most one term per sort; the
// per-(label, sort) memo guarantees that a shared object (e.g. one
// array_access node reused by several constraints) denotes one value,
// and the TermGraph prints that shared term once. No Z3 object is built:
// the terms become text that smt::Checker hands to Z3 on a cache miss.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/heapgraph/heapgraph.h"
#include "smt/smtlib.h"

namespace uchecker::core {

class Translator {
 public:
  Translator(smt::TermGraph& terms, const HeapGraph& graph);

  // trl(label : expected). `expected` guides sort selection for unknown-
  // typed values; a typed object is translated at its own type and then
  // coerced (PHP-style) to `expected`.
  [[nodiscard]] smt::Term translate(Label label, Type expected);

  // The PHP truthiness of a value, as a Bool term — used for the
  // reachability constraint (Constraint-3) and for Logical Not/And.
  [[nodiscard]] smt::Term truthy(Label label);

  // Number of fresh symbols introduced by the exception rule; a measure
  // of how much of the program escaped precise modeling.
  [[nodiscard]] std::size_t fallback_count() const { return fallback_count_; }

 private:
  [[nodiscard]] smt::Term fresh(Type type, const std::string& hint);
  // PHP-style cross-type coercion of a translated term.
  [[nodiscard]] smt::Term coerce(smt::Term e, Type from, Type to);
  // Resolves kUnknown operand types against a sibling (PHP comparison
  // semantics: compare in the known operand's domain, default string).
  [[nodiscard]] static Type resolve_pair(Type mine, Type sibling);

  [[nodiscard]] smt::Term translate_op(const Object& obj, Type expected);
  [[nodiscard]] smt::Term translate_func(const Object& obj, Type expected);
  [[nodiscard]] smt::Term translate_equal(const Object& obj, bool negate,
                                          bool identical);

  smt::TermGraph& terms_;
  const HeapGraph& graph_;
  // Memo keyed by (label << 2) | sort — one term per (object, sort).
  // With the hash-consed heap graph, shared subterms across the sink's
  // dst/src/reachability constraints translate exactly once.
  std::unordered_map<std::uint64_t, smt::Term> memo_;
  std::size_t fallback_count_ = 0;
  std::size_t fresh_counter_ = 0;
};

}  // namespace uchecker::core
