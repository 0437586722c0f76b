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
// the same plugin boilerplate — frequently reach byte-identical sink
// constraints; keying by the canonical s-expressions of (dst,
// reachability) — prefixed by the graph's `_ext` domain-axiom
// fingerprint, so a hit implies the *whole* constraint set is textually
// identical — lets later queries reuse the earlier verdict and witness
// without calling Z3. Only definitive kSat/kUnsat outcomes are stored;
// kUnknown (timeouts, queries Z3 rejects) is always re-attempted.
// Thread-safe: parallel fleet drivers share one detector across workers.
class SolverQueryCache {
 public:
  struct Outcome {
    smt::SatResult result = smt::SatResult::kUnknown;
    std::string witness;
    // The structured Z3 model the witness text was rendered from.
    // Cached so a hit can replay the *whole* evidence bundle — witness
    // decoding re-runs against the current root's graph — rather than
    // only the witness text (symbol names are part of the cache key via
    // the s-expressions, so the bindings transfer exactly).
    std::map<std::string, std::string> bindings;
    // The SMT-LIB query the model satisfies. Kept only by a scan that
    // collects evidence, and not persisted (encode_outcome), so a hit
    // replayed from disk or from a scan without evidence has none.
    std::string query;
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
  // so the witness can be checked by meaning: the query plus one
  // equality per binding is SAT. Empty when the outcome came from a
  // cache entry that does not carry it (SolverQueryCache::Outcome).
  std::string query;
};

// Decodes `assignments` (a model, as rendered by smt::Model) into an
// AttackWitness for the sink destination `dst`. Pure; safe to replay on
// SolverQueryCache hits because symbol names are pinned by the cache key.
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
};

// Checks every sink hit recorded by the interpreter. A sink that misses
// both the per-call memo and `query_cache` is translated to an SMT-LIB
// query and solved by `checker`; a fresh Translator is built per sink so
// per-path symbol memos do not leak across unrelated checks (objects
// shared across paths still translate identically within one sink's
// check).
// `query_cache`, when non-null, memoizes definitive solver outcomes
// across check_sinks calls (the detector owns one cache for all of its
// scans; see SolverQueryCache).
[[nodiscard]] VulnModelResult check_sinks(const InterpResult& interp,
                                          smt::Checker& checker,
                                          const VulnModelOptions& options = {},
                                          SolverQueryCache* query_cache = nullptr);

}  // namespace uchecker::core
