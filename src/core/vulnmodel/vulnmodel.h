// Vulnerability modeling (paper §III-C).
//
// A sink move_uploaded_file(e_src, e_dst) / file_put_contents(e_dst,
// e_src) is exploitable on a path when three constraints hold together:
//   C1  e_src is tainted by $_FILES            (heap-graph reachability)
//   C2  e_dst can end with an executable extension (".php"/".php5")
//   C3  the path's reachability constraint is satisfiable
// C1 is decided structurally; C2 ∧ C3 are translated (§III-D) and decided
// by Z3. One SAT path suffices for a vulnerable verdict.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/heapgraph/evidence.h"
#include "core/heapgraph/heapgraph.h"
#include "core/interp/interp.h"
#include "smt/solver.h"

namespace uchecker::core {

// Solver query cache, shared by every scan of one detector. Different
// analysis roots — and, fleet-wide, different applications built from
// the same plugin boilerplate — frequently reach sink constraints that
// are equal up to the names of their symbols. The key is the query's
// canonical SMT-LIB text (smt::TermGraph::query: constants c0, c1, ...
// in declaration order, lets numbered in print order), which holds the
// domain axioms, C2 and C3 whole, so a hit is the answer Z3 gives that
// very text, and its model maps back to the asking sink's own names.
// Only Z3's definitive kSat/kUnsat outcomes are stored; kUnknown
// (timeouts, queries Z3 rejects) is always re-attempted, and a case
// refutation (check_sinks) is never stored.
// Thread-safe: parallel fleet drivers share one detector across workers.
class SolverQueryCache {
 public:
  struct Outcome {
    smt::SatResult result = smt::SatResult::kUnknown;
    // The Z3 model of a SAT answer, under the canonical names c<i> of
    // the key (smt::Query::own_names renames it for the asking sink).
    std::map<std::string, std::string> bindings;
  };

  // Returns the cached outcome on a hit (counted), nullopt on a miss.
  [[nodiscard]] std::optional<Outcome> lookup(const std::string& key) const;
  void store(const std::string& key, Outcome outcome);
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t size() const;

  // Persistence hooks (scand durable caches). preload() inserts an
  // outcome recovered from disk without marking it dirty; drain_dirty()
  // returns every entry store()d since the last drain, so a service can
  // flush incrementally after each scan instead of rewriting the world.
  void preload(const std::string& key, Outcome outcome);
  [[nodiscard]] std::vector<std::pair<std::string, Outcome>> drain_dirty();
  [[nodiscard]] std::vector<std::pair<std::string, Outcome>> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Outcome> map_;
  std::vector<std::string> dirty_;  // keys inserted since the last drain
  mutable std::size_t hits_ = 0;
};

// Serialization of one cached outcome for the durable solver-cache
// store: a stable JSON object (parsed back with support/jsonlite).
// decode returns nullopt on any structural mismatch — the caller counts
// the record corrupt and re-solves.
[[nodiscard]] std::string encode_outcome(const SolverQueryCache::Outcome& o);
[[nodiscard]] std::optional<SolverQueryCache::Outcome> decode_outcome(
    std::string_view json);

struct VulnModelOptions {
  // Extensions considered server-executable. The paper models php/php5;
  // §VI notes variants are covered by extending this list, and phtml is
  // executable under the default Apache/mod_php handler map, so it is
  // part of the default C2 suffix set. Further variants (".asa",
  // ".swf", ...) extend the list the same way.
  std::vector<std::string> executable_extensions{"php", "php5", "phtml"};
  unsigned solver_timeout_ms = 5000;
  // One SAT path proves the vulnerability; stop checking further paths.
  // Disable to enumerate every exploitable sink (audit reports).
  bool stop_at_first_finding = true;
  // Attach provenance to each verdict: the source→sink taint path, the
  // path-constraint guards, and the decoded attack reconstruction.
  // Off (the default) keeps check_sinks on its zero-overhead path —
  // verdicts are byte-identical either way, evidence is purely additive.
  bool collect_evidence = false;
  // ScanOptions::crosscheck, carried down: prune nothing, so every
  // query goes to Z3 (or its cache) and the case refuter is skipped.
  bool crosscheck = false;
};

// One model assignment, decoded for human consumption.
struct WitnessBinding {
  std::string symbol;   // e.g. s_files_f_ext
  std::string raw;      // as smt::string_literal() prints it, e.g. "\"php\""
  std::string decoded;  // smt::decode_value(raw), e.g. php
};

// The concrete attack a SAT model describes, reconstructed against the
// sink's destination term: what the attacker names the uploaded file,
// and where the server ends up writing it.
struct AttackWitness {
  bool has_model = false;  // false for unsat/unknown or modelless SAT
  std::vector<WitnessBinding> bindings;
  // Attacker-controlled upload filename, e.g. "payload.php5". Built
  // from the $_FILES stem/extension bindings; unbound attacker-chosen
  // parts default to "payload" (any value satisfies the model).
  std::string upload_filename;
  // The destination term with every binding substituted, e.g.
  // "/uploads/payload.php". Unresolved subterms render as <name>.
  std::string destination;
  bool destination_complete = false;  // no unresolved subterm remains
  // The SMT-LIB query (domain axioms, C2 and C3) the bindings satisfy,
  // under the sink's own symbol names, so the witness can be checked by
  // meaning: the query plus one equality per binding is SAT.
  std::string query;
};

// Decodes `assignments` (a model, as rendered by smt::Model) into an
// AttackWitness for the sink destination `dst`. Pure. On a
// SolverQueryCache hit it gets the cached model renamed to the sink's
// own symbols (smt::Query::own_names), so it decodes against this
// sink's graph exactly as a fresh solve would.
[[nodiscard]] AttackWitness decode_witness(
    const HeapGraph& graph, Label dst,
    const std::map<std::string, std::string>& assignments,
    const VulnModelOptions& options);

// One analyzed sink occurrence (per path).
struct SinkVerdict {
  SinkHit sink;
  bool taint_ok = false;                                   // C1
  smt::SatResult constraints = smt::SatResult::kUnknown;   // C2 ∧ C3
  std::string dst_sexpr;          // se_dst, PHP-semantics s-expression
  std::string reach_sexpr;        // se_reachability
  std::string witness;            // satisfying assignment when SAT

  // Provenance, populated only under VulnModelOptions::collect_evidence
  // (empty otherwise). taint_path is ordered source→sink.
  std::vector<TaintHop> taint_path;
  std::vector<PathGuard> guards;
  AttackWitness attack;

  [[nodiscard]] bool exploitable() const {
    return taint_ok && constraints == smt::SatResult::kSat;
  }
};

struct VulnModelResult {
  std::vector<SinkVerdict> verdicts;
  std::size_t solver_calls = 0;
  std::size_t query_cache_hits = 0;  // sinks answered by SolverQueryCache
  bool vulnerable = false;  // any exploitable verdict
  // The checker's scan deadline expired mid-check; remaining sinks were
  // skipped and the surviving verdicts are partial.
  bool deadline_exceeded = false;
  // The checker's per-scan solver budget ran out
  // (smt::Checker::kScanSolverBudgetMs); remaining sinks were skipped
  // and the surviving verdicts are partial.
  bool solver_budget_exhausted = false;
};

// Checks every sink hit recorded by the interpreter. A sink that misses
// the per-call memo is translated to a canonical SMT-LIB query (a fresh
// Translator per sink, so per-path symbol memos do not leak across
// unrelated checks) and answered by the first of:
//   1. the case refuter, when C2 takes the equality form over the
//      extension symbol ext (C2 = ext ∈ E): every model binds ext to
//      some e ∈ E, so if for each e some assertion evaluates false
//      under ext := e (Kleene logic, smt::TermGraph::evaluate), the
//      query has no model and is UNSAT. Unknown symbols and operators
//      evaluate to unknown, so this only ever answers UNSAT, and only
//      soundly. Skipped under VulnModelOptions::crosscheck;
//   2. `query_cache`, when non-null: definitive Z3 outcomes across
//      check_sinks calls (the detector owns one cache for all of its
//      scans; see SolverQueryCache);
//   3. `checker`, which solves the canonical text on Z3.
[[nodiscard]] VulnModelResult check_sinks(const InterpResult& interp,
                                          smt::Checker& checker,
                                          const VulnModelOptions& options = {},
                                          SolverQueryCache* query_cache = nullptr);

}  // namespace uchecker::core
