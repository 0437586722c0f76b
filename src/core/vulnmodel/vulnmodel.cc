#include "core/vulnmodel/vulnmodel.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/heapgraph/sexpr.h"
#include "core/interp/builtins.h"
#include "core/translate/translate.h"
#include "smt/smtlib.h"
#include "support/jsonlite.h"
#include "support/scan_events.h"
#include "support/strutil.h"

namespace uchecker::core {
namespace {

bool is_ext_symbol(const Object& obj) {
  return obj.kind == Object::Kind::kSymbol && obj.files_tainted &&
         obj.name.size() > 4 &&
         obj.name.compare(obj.name.size() - 4, 4, "_ext") == 0;
}

// Does the value rooted at `label` textually end with a literal '.'?
// (Descends the rightmost spine of concatenations.)
bool ends_with_literal_dot(const HeapGraph& graph, Label label) {
  for (int guard = 0; guard < 256; ++guard) {
    const Object* obj = graph.find(label);
    if (obj == nullptr) return false;
    if (obj->kind == Object::Kind::kOp && obj->op == OpKind::kConcat) {
      label = obj->children[1];
      continue;
    }
    if (obj->kind == Object::Kind::kConcrete && obj->type == Type::kString) {
      const std::string& s = std::get<std::string>(obj->value);
      return !s.empty() && s.back() == '.';
    }
    return false;
  }
  return false;
}

// If `dst` structurally ends with  ... . "." . s_ext  (the pre-structured
// $_FILES name shape, possibly behind identity wrappers and benign
// str_replace calls), returns the extension symbol's label. In that
// case, given the domain axiom that s_ext contains no '.' (and attacker
// control of s_ext), the suffix constraint  (str.suffixof ".X" dst)  is
// *equivalent* to  s_ext == "X": the dot of ".X" can only align with the
// structural dot separator. This rewrite matters in practice: Z3 4.8's
// sequence solver cannot refute suffixof-vs-blacklist combinations
// (observed >60s), while the equality form is decided instantly.
//
// str_replace(search, repl, subject) with concrete search/repl passes
// through to `subject`: the attacker picks a witness input avoiding
// `search`, so satisfiability is preserved — with two guards. If `repl`
// contains a '.', the replacement itself could synthesize an executable
// suffix and the structural argument breaks (caller falls back to the
// general suffixof encoding). And any extension X whose mandatory tail
// ".X" contains `search` cannot be chosen avoidance-free; such X are
// appended to `excluded_exts` and dropped from the equality disjunction.
//
// Ternary/coalesce destinations ($dir_a . $n vs $dir_b . $n) are common
// and kill the sequence solver outright once the suffix disjunction has
// three or more arms, so the walk also descends through kTernary and
// kCoalesce: when BOTH value branches structurally end in the SAME
// extension symbol, suffixof distributes over the ite and the equality
// rewrite stays an equivalence. Different (or non-structural) branches
// fall back to the general encoding.
Label trailing_extension_symbol_impl(const HeapGraph& graph, Label dst,
                                     std::vector<std::string>* excluded_searches,
                                     int depth) {
  if (depth <= 0) return kNoLabel;
  Label label = resolve_through_identity(graph, dst);
  for (int guard = 0; guard < 256; ++guard) {
    const Object* obj = graph.find(label);
    if (obj == nullptr) return kNoLabel;
    if (obj->kind == Object::Kind::kOp &&
        (obj->op == OpKind::kTernary || obj->op == OpKind::kCoalesce)) {
      // Value branches: (ternary cond then else) / (coalesce lhs rhs).
      const std::size_t first = obj->op == OpKind::kTernary ? 1 : 0;
      if (obj->children.size() != first + 2) return kNoLabel;
      const Label then_ext = trailing_extension_symbol_impl(
          graph, obj->children[first], excluded_searches, depth - 1);
      if (then_ext == kNoLabel) return kNoLabel;
      const Label else_ext = trailing_extension_symbol_impl(
          graph, obj->children[first + 1], excluded_searches, depth - 1);
      return then_ext == else_ext ? then_ext : kNoLabel;
    }
    if (obj->kind == Object::Kind::kFunc) {
      if (obj->name == "str_replace" && obj->children.size() >= 3) {
        const Object& search = graph.at(obj->children[0]);
        const Object& repl = graph.at(obj->children[1]);
        if (search.kind == Object::Kind::kConcrete &&
            search.type == Type::kString &&
            repl.kind == Object::Kind::kConcrete &&
            repl.type == Type::kString &&
            std::get<std::string>(repl.value).find('.') ==
                std::string::npos &&
            !std::get<std::string>(search.value).empty()) {
          excluded_searches->push_back(std::get<std::string>(search.value));
          label = resolve_through_identity(graph, obj->children[2]);
          continue;
        }
        return kNoLabel;
      }
      const Label through = resolve_through_identity(graph, label);
      if (through == label) return kNoLabel;
      label = through;
      continue;
    }
    if (obj->kind != Object::Kind::kOp || obj->op != OpKind::kConcat) {
      return kNoLabel;
    }
    const Label right = resolve_through_identity(graph, obj->children[1]);
    const Object* right_obj = graph.find(right);
    if (right_obj == nullptr) return kNoLabel;
    if (is_ext_symbol(*right_obj) &&
        ends_with_literal_dot(graph, obj->children[0])) {
      return right;
    }
    if ((right_obj->kind == Object::Kind::kOp &&
         right_obj->op == OpKind::kConcat) ||
        right_obj->kind == Object::Kind::kFunc) {
      // Descend into the trailing component (a nested concat, or a
      // str_replace/identity wrapper handled at the top of the loop).
      label = right;
      continue;
    }
    return kNoLabel;
  }
  return kNoLabel;
}

Label trailing_extension_symbol(const HeapGraph& graph, Label dst,
                                std::vector<std::string>* excluded_searches) {
  // Depth bounds only the ternary/coalesce branching, not the rightmost
  // concat spine (the loop above handles arbitrarily long spines).
  return trailing_extension_symbol_impl(graph, dst, excluded_searches, 8);
}

// Hash for the per-call (dst, reachability) memo; labels are dense small
// ints, so splicing them into one word distributes fine.
struct LabelPairHash {
  std::size_t operator()(const std::pair<Label, Label>& p) const noexcept {
    return (static_cast<std::size_t>(p.first) << 32) ^
           static_cast<std::size_t>(p.second);
  }
};

// Renders the destination term with model bindings substituted. Tracks
// whether every subterm resolved to a concrete string.
struct DestinationResolver {
  const HeapGraph& graph;
  const std::map<std::string, std::string>& assignments;
  const VulnModelOptions& options;
  bool complete = true;

  void render(Label label, std::string& out, int depth) {
    if (depth > 64) {
      out += "<...>";
      complete = false;
      return;
    }
    const Object* obj = graph.find(label);
    if (obj == nullptr) {
      complete = false;
      out += "<null>";
      return;
    }
    switch (obj->kind) {
      case Object::Kind::kConcrete:
        out += value_to_string(obj->value);
        return;
      case Object::Kind::kSymbol: {
        const auto it = assignments.find(obj->name);
        if (it != assignments.end()) {
          out += smt::decode_value(it->second);
          return;
        }
        if (obj->files_tainted) {
          // Unconstrained attacker-controlled input: any value satisfies
          // the model, so pick a presentable one. Extension symbols get
          // an executable extension (that is the attack), stems a stub.
          if (obj->name.find("_ext") != std::string::npos &&
              !options.executable_extensions.empty()) {
            out += options.executable_extensions.front();
          } else {
            out += "payload";
          }
          return;
        }
        complete = false;
        out += "<" + obj->name + ">";
        return;
      }
      case Object::Kind::kOp:
        if (obj->op == OpKind::kConcat && obj->children.size() == 2) {
          render(obj->children[0], out, depth + 1);
          render(obj->children[1], out, depth + 1);
          return;
        }
        complete = false;
        out += "<" + std::string(op_kind_name(obj->op)) + ">";
        return;
      case Object::Kind::kFunc: {
        const Label through = resolve_through_identity(graph, label);
        if (through != label) {
          render(through, out, depth + 1);
          return;
        }
        complete = false;
        out += "<" + obj->name + "(...)>";
        return;
      }
      case Object::Kind::kArray:
        complete = false;
        out += "<array>";
        return;
    }
  }
};

}  // namespace

AttackWitness decode_witness(
    const HeapGraph& graph, Label dst,
    const std::map<std::string, std::string>& assignments,
    const VulnModelOptions& options) {
  AttackWitness attack;
  // No assignments means no model (unsat/unknown, or a solver that
  // produced none): nothing to decode, no attack to reconstruct.
  if (assignments.empty()) return attack;
  attack.has_model = true;
  attack.bindings.reserve(assignments.size());
  std::string ext_value;
  std::string stem_value;
  for (const auto& [symbol, raw] : assignments) {
    WitnessBinding binding;
    binding.symbol = symbol;
    binding.raw = raw;
    binding.decoded = smt::decode_value(raw);
    if (symbol.find("_ext") != std::string::npos && ext_value.empty()) {
      ext_value = binding.decoded;
    }
    if (symbol.find("_filename") != std::string::npos && stem_value.empty()) {
      stem_value = binding.decoded;
    }
    attack.bindings.push_back(std::move(binding));
  }

  // The attacker's upload filename: the bound stem/extension of the
  // pre-structured $_FILES name, with free (attacker-chosen) parts
  // defaulted. Without an extension binding — the suffixof encoding
  // constrains the whole destination, not the extension symbol — any
  // executable extension realizes the attack.
  if (stem_value.empty()) stem_value = "payload";
  if (ext_value.empty() && !options.executable_extensions.empty()) {
    ext_value = options.executable_extensions.front();
  }
  if (!ext_value.empty()) {
    attack.upload_filename = stem_value + "." + ext_value;
  }

  if (dst != kNoLabel) {
    DestinationResolver resolver{graph, assignments, options};
    resolver.render(dst, attack.destination, 0);
    attack.destination_complete = resolver.complete;
  }
  return attack;
}

std::optional<SolverQueryCache::Outcome> SolverQueryCache::lookup(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  ++hits_;
  return it->second;
}

void SolverQueryCache::store(const std::string& key, Outcome outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = map_.emplace(key, std::move(outcome));
  (void)it;
  if (inserted) dirty_.push_back(key);
}

void SolverQueryCache::preload(const std::string& key, Outcome outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(key, std::move(outcome));
}

std::vector<std::pair<std::string, SolverQueryCache::Outcome>>
SolverQueryCache::drain_dirty() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, Outcome>> out;
  out.reserve(dirty_.size());
  for (const std::string& key : dirty_) {
    const auto it = map_.find(key);
    if (it != map_.end()) out.emplace_back(it->first, it->second);
  }
  dirty_.clear();
  return out;
}

std::vector<std::pair<std::string, SolverQueryCache::Outcome>>
SolverQueryCache::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, Outcome>> out;
  out.reserve(map_.size());
  for (const auto& [key, outcome] : map_) out.emplace_back(key, outcome);
  return out;
}

std::size_t SolverQueryCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SolverQueryCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

VulnModelResult check_sinks(const InterpResult& interp, smt::Checker& checker,
                            const VulnModelOptions& options,
                            SolverQueryCache* query_cache) {
  VulnModelResult result;

  // Domain axioms for the pre-structured $_FILES model: a PHP file
  // extension (everything after the *last* dot) contains neither a dot
  // nor a path separator. Without these, blacklist-style validation
  // ("$ext !== 'php'") would be bypassable with s_ext = "x.php", which
  // no real pathinfo() result can produce. The `_ext` symbols are fixed
  // for the whole InterpResult, so collect them once; their axiom terms
  // are built when a sink first misses the memo, and most scans never
  // get that far.
  std::vector<Label> ext_symbols;
  for (const Object& obj : interp.graph.objects()) {
    if (is_ext_symbol(obj)) ext_symbols.push_back(obj.label);
  }
  smt::TermGraph terms;
  std::optional<std::vector<smt::Term>> domain_axioms;

  // One sink's answer under its own symbol names. `query` (the sink's
  // own query text) is kept only for SAT answers under collect_evidence.
  struct Answer {
    smt::SatResult result = smt::SatResult::kUnknown;
    std::map<std::string, std::string> bindings;
    std::string query;
  };
  // Paths that share the same (dst, reachability) objects would repeat
  // the identical query; memoize their answers, evidence included.
  std::unordered_map<std::pair<Label, Label>, Answer, LabelPairHash> memo;

  // Provenance is additive-only: attached after the verdict is decided,
  // never consulted before, so collect_evidence cannot change results.
  // The off path is a single branch (null-telemetry idiom).
  const auto attach_evidence = [&](SinkVerdict& verdict, const Answer& answer) {
    if (!options.collect_evidence) return;
    if (verdict.taint_ok && verdict.sink.src != kNoLabel) {
      verdict.taint_path =
          extract_taint_path(interp.graph, verdict.sink.src, verdict.sink.loc);
    }
    verdict.guards = extract_guards(interp.graph, verdict.sink.reachability);
    if (verdict.constraints == smt::SatResult::kSat) {
      verdict.attack = decode_witness(interp.graph, verdict.sink.dst,
                                      answer.bindings, options);
      verdict.attack.query = answer.query;
    }
  };

  telemetry::ScanEvents* const events = checker.events();
  // Answers a sink that missed the memo: translation, then the case
  // refuter, the cross-root cache and Z3, in that order.
  const auto answer_sink = [&](const SinkHit& sink) {
    std::vector<smt::Term> constraints;
    std::optional<smt::Term> ext_sym;  // C2 in equality form over it...
    std::vector<std::string> c2_exts;  // ...with these extensions
    smt::Query query;
    {
      // Translation gets its own phase span (per sink) so the fleet's
      // per-phase breakdown separates query printing from Z3 search.
      const telemetry::PhaseScope translate_span(events, "translate",
                                                 sink.sink_name);
      if (!domain_axioms.has_value()) {
        Translator axiom_trl(terms, interp.graph);
        std::vector<smt::Term> axioms;
        for (const Label label : ext_symbols) {
          const smt::Term ext = axiom_trl.translate(label, Type::kString);
          for (const char* forbidden : {".", "/"}) {
            axioms.push_back(terms.app(
                smt::Op::kNot,
                {terms.app(smt::Op::kContains,
                           {ext, terms.string_val(forbidden)})}));
          }
        }
        domain_axioms = std::move(axioms);
      }
      constraints = *domain_axioms;
      Translator trl(terms, interp.graph);
      // Constraint-2: (or (str.suffixof ".php" dst) (str.suffixof ".php5" dst)).
      // When dst structurally ends in the pre-structured "." . s_ext, use
      // the equivalent (and far cheaper) equality form over s_ext.
      smt::Term ext_constraint = terms.bool_val(false);
      std::vector<std::string> excluded_searches;
      if (const Label trailing = trailing_extension_symbol(
              interp.graph, sink.dst, &excluded_searches);
          trailing != kNoLabel) {
        ext_sym = trl.translate(trailing, Type::kString);
        for (const std::string& ext : options.executable_extensions) {
          const std::string tail = "." + ext;
          const bool clobbered = std::any_of(
              excluded_searches.begin(), excluded_searches.end(),
              [&tail](const std::string& s) {
                return tail.find(s) != std::string::npos;
              });
          if (clobbered) continue;  // ".X" cannot survive the str_replace
          c2_exts.push_back(ext);
          ext_constraint = terms.app(
              smt::Op::kOr,
              {ext_constraint,
               terms.app(smt::Op::kEq, {*ext_sym, terms.string_val(ext)})});
        }
      } else {
        const smt::Term dst = trl.translate(sink.dst, Type::kString);
        for (const std::string& ext : options.executable_extensions) {
          ext_constraint = terms.app(
              smt::Op::kOr,
              {ext_constraint,
               terms.app(smt::Op::kSuffixOf,
                         {terms.string_val("." + ext), dst})});
        }
      }
      constraints.push_back(ext_constraint);
      // Constraint-3: the path condition.
      if (sink.reachability != kNoLabel) {
        constraints.push_back(trl.truthy(sink.reachability));
      }
      query = terms.query(constraints);
    }

    Answer answer;
    // Case refutation: every model binds ext to one of c2_exts, so the
    // query is UNSAT when each of them makes some assertion false.
    const bool refuted =
        ext_sym.has_value() && !options.crosscheck &&
        std::all_of(c2_exts.begin(), c2_exts.end(),
                    [&](const std::string& ext) {
                      return terms.evaluate(constraints, *ext_sym, ext) ==
                             smt::Truth::kFalse;
                    });
    std::optional<SolverQueryCache::Outcome> hit;
    if (refuted) {
      if (events != nullptr) events->solver_query({.cache_hit = true});
      answer.result = smt::SatResult::kUnsat;
    } else if (query_cache != nullptr &&
               (hit = query_cache->lookup(query.text)).has_value()) {
      if (events != nullptr) events->solver_query({.cache_hit = true});
      ++result.query_cache_hits;
      answer.result = hit->result;
      answer.bindings = query.own_names(hit->bindings);
    } else {
      const smt::SolverOutcome outcome = checker.check(query.text);
      ++result.solver_calls;
      result.deadline_exceeded |= outcome.deadline_exceeded;
      result.solver_budget_exhausted |= outcome.budget_exhausted;
      answer.result = outcome.result;
      if (outcome.model.has_value()) {
        answer.bindings = query.own_names(outcome.model->assignments);
      }
      if (query_cache != nullptr &&
          outcome.result != smt::SatResult::kUnknown) {
        query_cache->store(
            query.text,
            {outcome.result, outcome.model.value_or(smt::Model{}).assignments});
      }
    }
    if (options.collect_evidence && answer.result == smt::SatResult::kSat) {
      answer.query = terms.named_query(constraints);
    }
    return answer;
  };

  for (const SinkHit& sink : interp.sinks) {
    if (checker.deadline().expired()) {
      // Degrade instead of hanging: unchecked sinks get no verdicts and
      // the caller reports the scan as deadline-bounded.
      result.deadline_exceeded = true;
      break;
    }
    if (checker.budget_exhausted()) {
      // Likewise when the scan's solver budget is spent: the caller
      // labels the verdict partial, never "Not vulnerable".
      result.solver_budget_exhausted = true;
      break;
    }
    SinkVerdict verdict;
    verdict.sink = sink;
    // Attribute everything the solver does for this sink — including the
    // answers below that need no Z3 call — to the sink occurrence.
    if (events != nullptr) {
      events->sink_origin(sink.sink_name, sink.loc.file.value, sink.loc.line);
    }

    // Constraint-1: the uploaded content must come from $_FILES.
    verdict.taint_ok =
        sink.src != kNoLabel && interp.graph.reaches_files_taint(sink.src);
    verdict.dst_sexpr = to_sexpr(interp.graph, sink.dst);
    verdict.reach_sexpr = sink.reachability == kNoLabel
                              ? "true"
                              : to_sexpr(interp.graph, sink.reachability);
    if (!verdict.taint_ok || sink.dst == kNoLabel) {
      verdict.constraints = smt::SatResult::kUnsat;
      result.verdicts.push_back(std::move(verdict));
      continue;
    }

    const auto memo_key = std::make_pair(sink.dst, sink.reachability);
    auto it = memo.find(memo_key);
    if (it != memo.end()) {
      if (events != nullptr) events->solver_query({.cache_hit = true});
    } else {
      it = memo.emplace(memo_key, answer_sink(sink)).first;
    }

    verdict.constraints = it->second.result;
    verdict.witness = smt::Model{it->second.bindings}.to_string();
    attach_evidence(verdict, it->second);
    if (verdict.exploitable()) result.vulnerable = true;
    const bool stop = verdict.exploitable() && options.stop_at_first_finding;
    result.verdicts.push_back(std::move(verdict));
    if (stop) break;
  }
  return result;
}

std::string encode_outcome(const SolverQueryCache::Outcome& o) {
  std::string out = "{\"result\": \"";
  out += sat_result_name(o.result);
  out += "\", \"bindings\": {";
  bool first = true;
  for (const auto& [symbol, raw] : o.bindings) {
    if (!first) out += ", ";
    first = false;
    out += strutil::quote(symbol) + ": " + strutil::quote(raw);
  }
  out += "}}";
  return out;
}

std::optional<SolverQueryCache::Outcome> decode_outcome(std::string_view json) {
  const std::optional<jsonlite::Value> doc = jsonlite::parse(json);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  const jsonlite::Value* result = doc->find("result");
  const jsonlite::Value* bindings = doc->find("bindings");
  if (result == nullptr || !result->is_string() || bindings == nullptr ||
      !bindings->is_object()) {
    return std::nullopt;
  }
  SolverQueryCache::Outcome o;
  if (result->str() == "sat") {
    o.result = smt::SatResult::kSat;
  } else if (result->str() == "unsat") {
    o.result = smt::SatResult::kUnsat;
  } else {
    // Only definitive outcomes are ever stored; an "unknown" on disk
    // means the record is not one of ours.
    return std::nullopt;
  }
  for (const auto& [symbol, raw] : bindings->members()) {
    if (!raw.is_string()) return std::nullopt;
    o.bindings[symbol] = raw.str();
  }
  return o;
}

}  // namespace uchecker::core
