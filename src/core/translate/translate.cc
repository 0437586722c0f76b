#include "core/translate/translate.h"

#include <limits>

#include "core/interp/builtins.h"
#include "support/fault_injector.h"
#include "support/strutil.h"

namespace uchecker::core {
namespace {

using smt::Op;
using smt::Sort;
using smt::Term;

// The sort a value of this PHP type translates into. Floats ride on Int
// (the upload constraints never need real arithmetic); arrays and nulls
// have no SMT carrier and always go through the fallback rule.
Sort sort_for(Type type) {
  switch (type) {
    case Type::kBool: return Sort::kBool;
    case Type::kInt:
    case Type::kFloat: return Sort::kInt;
    default: return Sort::kString;
  }
}

Type type_of(Sort sort) {
  switch (sort) {
    case Sort::kBool: return Type::kBool;
    case Sort::kInt: return Type::kInt;
    case Sort::kString: return Type::kString;
  }
  return Type::kString;
}

// double -> int64 truncation, with the x86-64 result (INT64_MIN) for
// NaN and out-of-range values instead of undefined behaviour.
std::int64_t truncate_to_int64(double d) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(d >= -kLimit && d < kLimit)) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(d);
}

}  // namespace

// Operand order: where a rule translates several operands, the right-
// most is translated first. Fresh symbols are numbered in translation
// order and their names reach witnesses, so this order is part of the
// output that tests/data/corpus_verdicts.golden pins.

Translator::Translator(smt::TermGraph& terms, const HeapGraph& graph)
    : terms_(terms), graph_(graph) {}

Term Translator::fresh(Type type, const std::string& hint) {
  ++fallback_count_;
  const std::string name =
      "u_" + hint + "_" + std::to_string(++fresh_counter_);
  return terms_.constant(name, sort_for(type));
}

Term Translator::coerce(Term e, Type from, Type to) {
  const Sort src = sort_for(from);
  const Sort dst = sort_for(to);
  if (src == dst) return e;
  switch (dst) {
    case Sort::kBool:
      if (src == Sort::kInt) {
        return terms_.app(Op::kDistinct, {e, terms_.int_val(0)});
      }
      // String truthiness ("" is falsy).
      return terms_.app(Op::kGt, {terms_.app(Op::kLength, {e}),
                                  terms_.int_val(0)});
    case Sort::kInt:
      if (src == Sort::kBool) {
        return terms_.app(Op::kIte, {e, terms_.int_val(1), terms_.int_val(0)});
      }
      return terms_.app(Op::kStrToInt, {e});  // PHP intval(), approximately
    case Sort::kString:
      if (src == Sort::kInt) return terms_.app(Op::kIntToStr, {e});
      return terms_.app(Op::kIte,
                        {e, terms_.string_val("1"), terms_.string_val("")});
  }
  return e;
}

Type Translator::resolve_pair(Type mine, Type sibling) {
  if (mine != Type::kUnknown) return mine;
  if (sibling != Type::kUnknown && sibling != Type::kArray &&
      sibling != Type::kNull) {
    return sibling;
  }
  return Type::kString;
}

Term Translator::truthy(Label label) {
  const Object* obj = graph_.find(label);
  if (obj == nullptr) return terms_.bool_val(true);
  const Type type = obj->type == Type::kUnknown ? Type::kBool : obj->type;
  switch (sort_for(type)) {
    case Sort::kBool:
      return translate(label, Type::kBool);
    case Sort::kInt:
      // Table II Logical Not, int.
      return terms_.app(Op::kDistinct,
                        {translate(label, Type::kInt), terms_.int_val(0)});
    case Sort::kString:
      if (type == Type::kArray || type == Type::kNull) {
        // Arrays/null have no precise carrier; a fresh boolean keeps the
        // constraint satisfiable either way (exception rule).
        return fresh(Type::kBool, "truthy");
      }
      // Table II Logical Not, string: "" is falsy. (PHP also treats "0"
      // as falsy; that refinement rarely matters for upload logic.)
      return terms_.app(
          Op::kGt, {terms_.app(Op::kLength, {translate(label, Type::kString)}),
                    terms_.int_val(0)});
  }
  return terms_.bool_val(true);
}

Term Translator::translate(Label label, Type expected) {
  FaultInjector::checkpoint("translate");
  const Object* obj = graph_.find(label);
  if (obj == nullptr) return fresh(expected, "null");
  const Type resolved = obj->type == Type::kUnknown ? expected : obj->type;
  const std::uint64_t key = (static_cast<std::uint64_t>(label) << 2) |
                            static_cast<std::uint64_t>(sort_for(resolved));
  if (const auto it = memo_.find(key); it != memo_.end()) {
    // Memoized at the object's own sort; coerce to the caller's.
    return coerce(it->second, resolved, expected);
  }

  Term result;
  switch (obj->kind) {
    case Object::Kind::kConcrete:
      switch (obj->type) {
        case Type::kBool:
          result = coerce(terms_.bool_val(std::get<bool>(obj->value)),
                          Type::kBool, resolved);
          break;
        case Type::kInt:
          result = coerce(terms_.int_val(std::get<std::int64_t>(obj->value)),
                          Type::kInt, resolved);
          break;
        case Type::kFloat:
          result = coerce(
              terms_.int_val(truncate_to_int64(std::get<double>(obj->value))),
              Type::kInt, resolved);
          break;
        case Type::kString:
          result = coerce(terms_.string_val(std::get<std::string>(obj->value)),
                          Type::kString, resolved);
          break;
        default:  // null
          result = coerce(terms_.string_val(""), Type::kString, resolved);
          break;
      }
      break;
    case Object::Kind::kSymbol:
      // Table II row 2: a symbol with the value's type. An unknown-typed
      // symbol is declared once, at the sort of its first use; a use at
      // another sort coerces that term (normalized below).
      if (const auto it = symbols_.find(label); it != symbols_.end()) {
        result = it->second;
      } else {
        result = terms_.constant(obj->name, sort_for(resolved));
        symbols_.emplace(label, result);
      }
      break;
    case Object::Kind::kOp:
      result = translate_op(*obj, resolved);
      break;
    case Object::Kind::kFunc:
      result = translate_func(*obj, resolved);
      break;
    case Object::Kind::kArray:
      // Arrays have no SMT carrier; exception rule.
      result = fresh(resolved, "array");
      break;
  }
  // Op/func translations may come back at a different sort than the
  // object's nominal type (e.g. an unknown func translated at the
  // caller's expectation); normalize to `resolved` before memoizing.
  result = coerce(result, type_of(terms_.sort(result)), resolved);
  memo_.emplace(key, result);
  return coerce(result, resolved, expected);
}

Term Translator::translate_equal(const Object& obj, bool negate,
                                 bool identical) {
  const Object& lhs = graph_.at(obj.children[0]);
  const Object& rhs = graph_.at(obj.children[1]);
  // `strpos(...) === false` means "not found", which str.indexof says
  // with -1; coercing false to the Int 0 would say "found at 0".
  const auto is_false = [](const Object& o) {
    return o.kind == Object::Kind::kConcrete && o.type == Type::kBool &&
           !std::get<bool>(o.value);
  };
  const auto is_strpos = [](const Object& o) {
    return o.kind == Object::Kind::kFunc && o.name == "strpos";
  };
  if (identical && (is_strpos(lhs) || is_strpos(rhs)) &&
      (is_false(lhs) || is_false(rhs))) {
    const Label pos = is_strpos(lhs) ? obj.children[0] : obj.children[1];
    const Term eq = terms_.app(
        Op::kEq, {translate(pos, Type::kInt), terms_.int_val(-1)});
    return negate ? terms_.app(Op::kNot, {eq}) : eq;
  }
  // Table II "Logical Equal": dispatch on operand types, coercing the
  // unknown side into the known side's domain.
  const Type lt = resolve_pair(lhs.type, rhs.type);
  const Type rt = resolve_pair(rhs.type, lt);
  Term l = translate(obj.children[0], lt);
  Term r = translate(obj.children[1], rt);
  if (sort_for(lt) != sort_for(rt)) {
    // Coerce toward the "wider" domain: string > int > bool.
    const Type target = (sort_for(lt) == Sort::kString ||
                         sort_for(rt) == Sort::kString)
                            ? Type::kString
                            : Type::kInt;
    l = coerce(l, lt, target);
    r = coerce(r, rt, target);
  }
  const Term eq = terms_.app(Op::kEq, {l, r});
  return negate ? terms_.app(Op::kNot, {eq}) : eq;
}

Term Translator::translate_op(const Object& obj, Type expected) {
  const auto child = [&](std::size_t i, Type t) {
    return translate(obj.children[i], t);
  };
  // A binary op over two operands of one type, right operand first.
  const auto binary = [&](Op op, Type t) {
    const Term rhs = child(1, t);
    return terms_.app(op, {child(0, t), rhs});
  };
  // Integer division and modulo with the denominator guarded against 0.
  const auto guarded = [&](Op op) {
    const Term denom = child(1, Type::kInt);
    const Term safe = terms_.app(
        Op::kIte, {terms_.app(Op::kEq, {denom, terms_.int_val(0)}),
                   terms_.int_val(1), denom});
    return terms_.app(op, {child(0, Type::kInt), safe});
  };
  // Comparisons between strings compare as strings in PHP when both
  // sides are strings (no SMT model: exception rule); otherwise integer
  // comparison.
  const auto compare = [&](Op op) {
    const bool strings = graph_.at(obj.children[0]).type == Type::kString &&
                         graph_.at(obj.children[1]).type == Type::kString;
    if (strings) return fresh(Type::kBool, "strcmp");
    return binary(op, Type::kInt);
  };

  switch (obj.op) {
    case OpKind::kConcat:
      // Table II "String concat": (str.++ a b); non-string operands are
      // coerced (PHP juggles ints into strings when concatenating).
      return binary(Op::kConcat, Type::kString);
    case OpKind::kAdd: return binary(Op::kAdd, Type::kInt);
    case OpKind::kSub: return binary(Op::kSub, Type::kInt);
    case OpKind::kMul: return binary(Op::kMul, Type::kInt);
    case OpKind::kDiv: return guarded(Op::kDiv);
    case OpKind::kMod: return guarded(Op::kMod);
    case OpKind::kPow:
      return fresh(Type::kInt, "pow");  // nonlinear; exception rule
    case OpKind::kNegate:
      return terms_.app(Op::kNeg, {child(0, Type::kInt)});
    case OpKind::kEqual:
      return translate_equal(obj, /*negate=*/false, /*identical=*/false);
    case OpKind::kIdentical:
      return translate_equal(obj, /*negate=*/false, /*identical=*/true);
    case OpKind::kNotEqual:
      return translate_equal(obj, /*negate=*/true, /*identical=*/false);
    case OpKind::kNotIdentical:
      return translate_equal(obj, /*negate=*/true, /*identical=*/true);
    case OpKind::kLess: return compare(Op::kLt);
    case OpKind::kGreater: return compare(Op::kGt);
    case OpKind::kLessEqual: return compare(Op::kLe);
    case OpKind::kGreaterEqual: return compare(Op::kGe);
    case OpKind::kAnd: {
      // Table II "Logical AND": operand truthiness per type.
      const Term lhs = truthy(obj.children[0]);
      return terms_.app(Op::kAnd, {lhs, truthy(obj.children[1])});
    }
    case OpKind::kOr: {
      const Term lhs = truthy(obj.children[0]);
      return terms_.app(Op::kOr, {lhs, truthy(obj.children[1])});
    }
    case OpKind::kXor: {
      const Term rhs = truthy(obj.children[1]);
      return terms_.app(Op::kDistinct, {truthy(obj.children[0]), rhs});
    }
    case OpKind::kNot:
      // Table II "Logical Not".
      return terms_.app(Op::kNot, {truthy(obj.children[0])});
    case OpKind::kBitAnd:
    case OpKind::kBitOr:
    case OpKind::kBitXor:
    case OpKind::kShiftLeft:
    case OpKind::kShiftRight:
      return fresh(Type::kInt, "bitop");  // exception rule
    case OpKind::kArrayAccess:
      // Element of an unknown array: exception rule, but memoized per
      // node so the same access denotes one value everywhere.
      return fresh(expected, "array_access");
    case OpKind::kTernary: {
      const Type branch_type =
          expected == Type::kUnknown ? Type::kString : expected;
      const Term otherwise = child(2, branch_type);
      const Term then = child(1, branch_type);
      return terms_.app(Op::kIte, {truthy(obj.children[0]), then, otherwise});
    }
    case OpKind::kCoalesce: {
      const Type branch_type =
          expected == Type::kUnknown ? Type::kString : expected;
      const Term rhs = child(1, branch_type);
      const Term lhs = child(0, branch_type);
      return terms_.app(Op::kIte, {fresh(Type::kBool, "isnull"), lhs, rhs});
    }
  }
  return fresh(expected, "op");
}

Term Translator::translate_func(const Object& obj, Type expected) {
  const std::string& name = obj.name;
  const auto child = [&](std::size_t i, Type t) {
    return translate(obj.children[i], t);
  };
  const std::size_t n = obj.children.size();

  // Identity-translated string functions (strtolower, trim, basename on
  // attacker-controlled names, ...): trl(f(e)) = trl(e).
  if ((is_identity_builtin(name) || name == "basename") && n >= 1) {
    return coerce(child(0, Type::kString), Type::kString, expected);
  }
  if (name == "strlen" && n == 1) {  // Table II "String length"
    return terms_.app(Op::kLength, {child(0, Type::kString)});
  }
  if (name == "strpos" && n >= 2) {  // Table II "Index of string"
    const Term offset = n >= 3 ? child(2, Type::kInt) : terms_.int_val(0);
    const Term needle = child(1, Type::kString);
    return terms_.app(Op::kIndexOf,
                      {child(0, Type::kString), needle, offset});
  }
  if (name == "str_replace" && n >= 3) {  // Table II "String replace"
    // PHP order: (search, replace, subject); SMT: (str.replace subject
    // search replace).
    const Term subject = child(2, Type::kString);
    const Term repl = child(1, Type::kString);
    return terms_.app(Op::kReplace,
                      {subject, child(0, Type::kString), repl});
  }
  if (name == "intval" && n >= 1) {  // Table II "String to int"
    const Object& a = graph_.at(obj.children[0]);
    if (a.type == Type::kInt || a.type == Type::kFloat ||
        a.type == Type::kBool) {
      return coerce(child(0, Type::kInt), Type::kInt, expected);
    }
    return coerce(terms_.app(Op::kStrToInt, {child(0, Type::kString)}),
                  Type::kInt, expected);
  }
  if (name == "strval" && n >= 1) {
    return coerce(child(0, Type::kString), Type::kString, expected);
  }
  if (name == "boolval" && n >= 1) {
    return coerce(truthy(obj.children[0]), Type::kBool, expected);
  }
  if (name == "substr" && n >= 2) {  // Table II "Substring", both arities
    // PHP's negative start/length count from the end of the string;
    // normalize before str.substr, which expects non-negative offsets.
    const Term s = child(0, Type::kString);
    const auto normalize = [&](Term v) {
      const Term negative = terms_.app(Op::kLt, {v, terms_.int_val(0)});
      const Term from_end =
          terms_.app(Op::kAdd, {terms_.app(Op::kLength, {s}), v});
      return terms_.app(Op::kIte, {negative, from_end, v});
    };
    if (n == 2) {
      const Term start = normalize(child(1, Type::kInt));
      return terms_.app(Op::kSubstr, {s, start, terms_.app(Op::kLength, {s})});
    }
    const Term len = normalize(child(2, Type::kInt));
    return terms_.app(Op::kSubstr, {s, normalize(child(1, Type::kInt)), len});
  }
  if (name == "empty" && n == 1) {
    return coerce(terms_.app(Op::kNot, {truthy(obj.children[0])}),
                  Type::kBool, expected);
  }
  if (name == "sprintf" || name == "implode" || name == "join") {
    // Reaches here only when the semantic model could not decompose it.
    return fresh(expected == Type::kUnknown ? Type::kString : expected, name);
  }

  // Exception rule (§III-D): a fresh symbol of the expected sort.
  const Type t = expected == Type::kUnknown
                     ? (obj.type == Type::kUnknown ? Type::kString : obj.type)
                     : expected;
  return fresh(t, name);
}

}  // namespace uchecker::core
