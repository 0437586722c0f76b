// The heap graph G = {C, S, FUNC, OP, L, T, O_C, O_S, O_FUNC, O_OP, Edge}
// of paper §III-B1, plus per-path environments Env = {Var, Map, cur}.
//
// The heap graph is a hash-consed arena of immutable objects. Each object
// gets a unique label (its index + 1, so labels match the paper's 1-based
// numbering). Edges are stored as an ordered child list on the source
// object, preserving operand order ("left"/"right") as §III-B3 requires.
//
// Hash-consing: add_concrete/add_func/add_op/add_array return the label
// of an existing structurally identical object instead of appending a
// duplicate, so the graph is a maximally shared DAG. The cons key covers
// every field that affects analysis results — including the $_FILES
// taint flag (a tainted node must never be merged with its untainted
// structural twin) and the type (light-weight inference refines types
// in place, so nodes that could diverge by type stay distinct). The two
// monotone mutators, refine_type and mark_files_tainted, re-key the
// mutated node so stale cons-table entries can never alias it.
// add_symbol is not consed: symbol names are unique by construction and
// symbols are the primary targets of post-creation taint marking.
//
// Objects are shared across environments: forking a path at a conditional
// copies only the small interned-id Var->Label vector, never graph nodes.
// This is the paper's memory-compactness argument (Table III "Objects /
// Path"); consing is what makes the DAG *shared* rather than merely
// append-only when many paths evaluate the same expressions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "support/source.h"

namespace uchecker::core {

// Lightweight PHP type lattice used for light-weight type inference and
// for the Z3 translation's coercion rules. kUnknown is the paper's ⊥.
enum class Type : std::uint8_t {
  kUnknown, kNull, kBool, kInt, kFloat, kString, kArray,
};

[[nodiscard]] std::string_view type_name(Type t);

// Labels are 1-based; 0 is "no object" (the paper's null).
using Label = std::uint32_t;
inline constexpr Label kNoLabel = 0;

// Operator vocabulary for O_OP nodes. Mirrors PHP source operators plus
// the special array_access operation of §III-B3 and the AND/NOT nodes
// introduced by ER() / branch negation.
enum class OpKind : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kPow, kConcat,
  kEqual, kNotEqual, kIdentical, kNotIdentical,
  kLess, kGreater, kLessEqual, kGreaterEqual,
  kAnd, kOr, kXor, kNot,
  kBitAnd, kBitOr, kBitXor, kShiftLeft, kShiftRight,
  kNegate,        // unary minus
  kArrayAccess,   // (array_access base index)
  kTernary,       // (ternary cond then else) — kept for value modeling
  kCoalesce,
};

[[nodiscard]] std::string_view op_kind_name(OpKind op);

// Concrete PHP value payload for O_C nodes.
using Value = std::variant<std::monostate,  // null
                           bool, std::int64_t, double, std::string>;

[[nodiscard]] std::string value_to_string(const Value& v);
[[nodiscard]] Type value_type(const Value& v);

// One entry of a known-structure array object. Keys are stored as strings
// with an is-int flag (PHP array keys are int|string).
struct ArrayEntry {
  std::string key;
  bool int_key = false;
  Label value = kNoLabel;
};

// A node in the heap graph. Exactly one of the payloads is meaningful,
// selected by `kind`:
//   kConcrete: `value`
//   kSymbol:   `name` (the symbolic value's display name)
//   kFunc:     `name` (builtin function name) + `children` (parameters)
//   kOp:       `op` + `children` (ordered operands)
//   kArray:    `entries` (known structure array; used for array literals
//              and the pre-structured $_FILES array of §III-B4)
struct Object {
  enum class Kind : std::uint8_t { kConcrete, kSymbol, kFunc, kOp, kArray };

  Kind kind = Kind::kSymbol;
  Type type = Type::kUnknown;
  Label label = kNoLabel;
  SourceLoc loc;

  Value value;
  std::string name;
  OpKind op = OpKind::kAdd;
  std::vector<Label> children;
  std::vector<ArrayEntry> entries;

  // Constraint-1 bookkeeping: true when this object originates from the
  // $_FILES superglobal (directly, or via the pre-structured array).
  bool files_tainted = false;
};

[[nodiscard]] std::string_view object_kind_name(Object::Kind kind);

class HeapGraph {
 public:
  HeapGraph() = default;

  // --- node constructors (Create_*_Obj + Add_*_Obj of §III-B2, fused:
  //     labels are assigned uniquely on insertion). Hash-consed: a
  //     structurally identical object returns the existing label.
  Label add_concrete(Value value, SourceLoc loc = {});
  Label add_symbol(std::string name, Type type, SourceLoc loc = {},
                   bool files_tainted = false);
  Label add_func(std::string name, Type result_type, std::vector<Label> params,
                 SourceLoc loc = {});
  Label add_op(OpKind op, Type result_type, std::vector<Label> operands,
               SourceLoc loc = {});
  Label add_array(std::vector<ArrayEntry> entries, SourceLoc loc = {},
                  bool files_tainted = false);

  // Find(G, l) — returns nullptr when l is kNoLabel or out of range.
  [[nodiscard]] const Object* find(Label label) const;
  // Checked access; label must be valid.
  [[nodiscard]] const Object& at(Label label) const;

  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  // How many add_* calls were answered by an existing structurally
  // identical node instead of a fresh insertion (Table III sharing).
  [[nodiscard]] std::size_t cons_hits() const { return cons_hits_; }

  // Refines the type of an object whose type is still kUnknown. Used by
  // the interpreter's light-weight type inference (§III-B4); refinement
  // is monotone: a known type is never overwritten. Re-keys the node in
  // the cons table (type is part of the structural identity).
  void refine_type(Label label, Type type);

  // Marks an object as $_FILES-tainted after creation (used when a
  // symbol is later discovered to alias uploaded-file state). Re-keys
  // the node (taint is part of the structural identity, so an untainted
  // twin added later gets a fresh node) and drops cached negative
  // reachability answers, which the marking may have invalidated.
  void mark_files_tainted(Label label);

  // Constraint-1 of §III-C: does any path in G lead from `label` to an
  // object that originates from $_FILES? Memoized per node; the memo is
  // only invalidated by mark_files_tainted (taint is otherwise fixed at
  // creation, and new nodes can never become children of old ones).
  [[nodiscard]] bool reaches_files_taint(Label label) const;

  // --- s-expression render cache (used by to_sexpr). Object structure
  //     is immutable after insertion, so a rendered form stays valid for
  //     the graph's lifetime; entries are keyed by queried root label.
  [[nodiscard]] const std::string* cached_sexpr(Label label) const;
  void cache_sexpr(Label label, std::string rendered) const;
  [[nodiscard]] std::size_t sexpr_cache_hits() const {
    return sexpr_cache_hits_;
  }

  // Approximate resident size, for the Table III "Memory" column.
  // Counts the analysis-visible structure (objects, edges, strings), not
  // the cons-table/memo side tables.
  [[nodiscard]] std::size_t memory_bytes() const;

  // All objects, label order. Exposed for DOT export and tests.
  [[nodiscard]] const std::vector<Object>& objects() const { return objects_; }

 private:
  Label insert(Object obj, std::size_t hash);  // unconditional append
  Label intern(Object obj);                    // hash-cons lookup-or-append
  // Re-places `label` in the slot table after a monotone mutation changed
  // its structural identity (no-op for nodes outside the table: symbols).
  void rekey(Label label);
  void place(Label label);  // claims a slot for label by hashes_[label-1]
  void grow_table();

  [[nodiscard]] static std::size_t structural_hash(const Object& obj);
  [[nodiscard]] static bool structurally_equal(const Object& a,
                                               const Object& b);

  std::vector<Object> objects_;
  // Structural hash per label (parallel to objects_). Cached so probes
  // compare one word before falling back to full structural equality,
  // and so rekey can find a node's old slot without re-deriving the
  // pre-mutation hash.
  std::vector<std::size_t> hashes_;
  std::size_t edge_count_ = 0;
  std::size_t string_bytes_ = 0;

  // Open-addressing cons table over labels (linear probing, power-of-two
  // size). kNoLabel marks an empty slot, kTombstoneSlot an erased one
  // (rekey moves nodes; tombstones are recycled by probing inserts and
  // dropped wholesale on growth). A flat table keeps the per-node insert
  // cost allocation-free — the bucket-of-vectors shape paid two heap
  // allocations per unique node, which dominated graph construction.
  std::vector<Label> slots_;
  std::size_t table_used_ = 0;  // occupied + tombstoned slots (load input)
  std::size_t cons_hits_ = 0;

  // Per-node taint reachability memo: 0 = unknown, 1 = no, 2 = yes.
  // Indexed by label; lazily grown, cleared by mark_files_tainted.
  mutable std::vector<std::uint8_t> taint_memo_;

  mutable std::unordered_map<Label, std::string> sexpr_cache_;
  mutable std::size_t sexpr_cache_hits_ = 0;
};

// -------------------------------------------------------------------------
// Variable-name interning (per scan): path forks copy the Var->Label map
// once per fork, so map keys must be cheap to copy and compare. Interned
// ids make the per-path map a flat vector of 8-byte entries instead of an
// rb-tree of heap-allocated strings.

using VarId = std::uint32_t;
inline constexpr VarId kNoVar = 0;  // ids are 1-based; 0 means "absent"

class VarInterner {
 public:
  // Returns the id for `name`, creating one on first sight.
  VarId intern(std::string_view name);
  // Returns the id for `name`, or kNoVar when never interned.
  [[nodiscard]] VarId lookup(std::string_view name) const;
  // Display name for an interned id (id must be valid).
  [[nodiscard]] const std::string& name(VarId id) const;
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, VarId, Hash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

// -------------------------------------------------------------------------
// Per-path environment (paper §III-B1): variable map + reachability.
//
// The variable map is a flat vector of (interned id, label) pairs kept
// sorted by id: forking a path copies one contiguous allocation. The
// interner is shared (by pointer) between the interpreter and every
// environment it forks, so the string-keyed convenience API used by
// tests and the DOT export keeps working on result environments.

class Env {
 public:
  // How this path's execution ended (drives statement skipping).
  enum class Status : std::uint8_t { kRunning, kReturned, kExited };

  using VarEntry = std::pair<VarId, Label>;

  Env() = default;

  // --- interned-id map (interpreter hot path) ---
  [[nodiscard]] Label get(VarId id) const;
  void set(VarId id, Label label);
  void erase(VarId id);
  [[nodiscard]] const std::vector<VarEntry>& entries() const { return map_; }
  void set_entries(std::vector<VarEntry> entries);

  // --- name-keyed convenience API (tests, exports, debugging) ---
  [[nodiscard]] Label get_map(const std::string& var) const;
  void add_map(const std::string& var, Label label);
  void remove_map(const std::string& var);
  // Materializes the map with display names (ordered). For inspection
  // only; the interpreter works on `entries()`.
  [[nodiscard]] std::map<std::string, Label> map() const;

  void bind_interner(std::shared_ptr<VarInterner> interner) {
    interner_ = std::move(interner);
  }
  [[nodiscard]] const std::shared_ptr<VarInterner>& interner() const {
    return interner_;
  }

  [[nodiscard]] Label cur() const { return cur_; }
  void set_cur(Label label) { cur_ = label; }

  [[nodiscard]] Status status() const { return status_; }
  void set_status(Status s) { status_ = s; }
  [[nodiscard]] bool running() const { return status_ == Status::kRunning; }

  [[nodiscard]] Label return_value() const { return return_value_; }
  void set_return_value(Label label) { return_value_ = label; }

  // Operand stack used by the interpreter's expression evaluation. A path
  // fork copies the stack, keeping partial results aligned with paths.
  [[nodiscard]] std::vector<Label>& stack() { return stack_; }
  [[nodiscard]] const std::vector<Label>& stack() const { return stack_; }

  // Saved caller variable maps for inlined user-function calls.
  [[nodiscard]] std::vector<std::vector<VarEntry>>& frames() {
    return frames_;
  }
  [[nodiscard]] const std::vector<std::vector<VarEntry>>& frames() const {
    return frames_;
  }

  // Structural paths this environment stands for: a fork copies it, and
  // the interpreter's merge at an if/switch join adds the members'
  // weights (saturating), so the sum over all environments is the path
  // count an unmerged run would end with.
  [[nodiscard]] std::uint64_t weight() const { return weight_; }
  void set_weight(std::uint64_t weight) { weight_ = weight; }

  // Which pre-fork environment of the innermost enclosing if/switch this
  // one descends from (interpreter bookkeeping for the merge).
  [[nodiscard]] std::uint32_t fork_origin() const { return fork_origin_; }
  void set_fork_origin(std::uint32_t origin) { fork_origin_ = origin; }

  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // Lazily creates a private interner for standalone Envs (tests).
  VarInterner& own_interner();

  std::vector<VarEntry> map_;  // sorted by VarId
  std::shared_ptr<VarInterner> interner_;
  Label cur_ = kNoLabel;  // kNoLabel == the paper's cur = null
  Status status_ = Status::kRunning;
  Label return_value_ = kNoLabel;
  std::uint32_t fork_origin_ = 0;
  std::uint64_t weight_ = 1;
  std::vector<Label> stack_;
  std::vector<std::vector<VarEntry>> frames_;
};

// ER(G, Env, l) of §III-B2 ("Extend_Reachability"): conjoins the object
// `label` onto the environment's reachability constraint.
void extend_reachability(HeapGraph& graph, Env& env, Label label);

}  // namespace uchecker::core
