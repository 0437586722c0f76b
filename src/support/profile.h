// Engine introspection: the path-explosion profiler.
//
// The paper's failure mode (its one corpus false negative, Cimy User
// Extra Fields) is a scan that dies of path explosion with nothing to
// show for it but a budget_exhausted flag.
// This module attributes the explosion to its causes, per analysis
// root:
//
//   (a) path forks -> the source fork site that spawned them
//       (conditional / switch / loop unroll / foreach / try-catch /
//       bounded call inline), with *cumulative* counts (paths spawned
//       by the whole construct, nested sites included) and *self*
//       counts (cumulative minus nested), so the top-of-chain loop is
//       distinguishable from its body;
//   (b) solver wall time and query counts -> the sink and constraint
//       origin that issued them, warm SolverQueryCache/memo hits
//       included (zero wall time, attributed all the same);
//   (c) heap-graph object and arena byte growth -> the fork depth that
//       allocated it, sampled on the interpreter's existing
//       deadline-poll stride.
//
// When a root ends incomplete the detector folds this data into a
// budget post-mortem (top-10 fork sites, live-path histogram over
// time, the dominant loop) attached to the verdict.
//
// Profiling is opt-in: the scan event hook (support/scan_events.h,
// which holds the overhead contract) owns one PathProfiler per profiled
// scan and feeds it. The recorder is guarded by one mutex so snapshot()
// can race the interpreter thread (TSan-clean); contention is nil
// because one root is interpreted by one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/telemetry.h"

namespace uchecker::profile {

// The fork constructs the interpreter attributes paths to.
enum class ForkKind {
  kConditional,  // if / elseif chains
  kSwitch,
  kLoop,     // while / for / do-while bounded unroll
  kForeach,  // known-array unroll or skip/enter on unknown arrays
  kTryCatch,
  kCall,  // bounded user-function inlining
};

[[nodiscard]] std::string_view fork_kind_name(ForkKind kind);

// One source fork site, ranked by the paths it spawned.
struct ForkSiteStats {
  // Human-readable "file:line" anchor. The interpreter records raw
  // (file, line) ids; the detector resolves them against its
  // SourceManager. Until resolved the rendering is "file#<id>:<line>".
  std::string site;
  std::uint32_t file = 0;  // raw FileId value (0 when unknown)
  std::uint32_t line = 0;
  ForkKind kind = ForkKind::kConditional;
  std::string detail;  // "if", "while", "foreach", callee name, ...
  std::uint64_t visits = 0;
  // Paths spawned across the whole construct, nested fork sites
  // included (the env-count delta over the construct, summed per
  // visit)...
  std::uint64_t cumulative_paths = 0;
  // ...and with nested sites' cumulative counts subtracted, so a loop
  // is distinguishable from the conditionals in its body.
  std::uint64_t self_paths = 0;
};

// Solver cost attributed to the sink occurrence that issued the query.
struct SolverSiteStats {
  std::string sink;    // sink name, e.g. "move_uploaded_file"
  std::string origin;  // resolved sink location (same contract as site)
  std::uint32_t file = 0;
  std::uint32_t line = 0;
  std::uint64_t queries = 0;     // Z3 calls
  std::uint64_t cache_hits = 0;  // SolverQueryCache / per-call memo hits
  double wall_ms = 0.0;          // Z3 wall time (hits contribute 0)
};

// Heap-graph growth attributed to the fork depth that allocated it.
struct HeapDepthStats {
  std::uint32_t depth = 0;  // fork-frame stack depth at sample time
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
};

// The budget post-mortem: why an incomplete root died.
struct PostMortem {
  std::string reason;  // budget_exhausted | deadline_exceeded | analysis_error
  std::uint64_t peak_paths = 0;
  // "site (kind detail)" of the top-ranked loop/foreach site by
  // cumulative paths; when no loop forked (a conditional-driven
  // explosion like Cimy's if/elseif ladder) the top fork site of any
  // kind, so the field always names the dominating construct. Empty
  // only when the root recorded no fork at all.
  std::string dominant_loop;
  std::vector<ForkSiteStats> top_sites;  // <= 10, ranked
  std::vector<telemetry::ProgressSample> live_path_histogram;
};

// Everything attributed for one analysis root.
struct RootProfile {
  std::string root;
  bool incomplete = false;
  std::string reason;  // empty when the root completed
  std::uint64_t peak_paths = 0;
  std::vector<ForkSiteStats> fork_sites;  // ranked by cumulative desc
  std::vector<SolverSiteStats> solver;    // ranked by wall_ms desc
  std::vector<HeapDepthStats> heap_by_depth;  // ascending depth
  // Live-path timeline on the deadline-poll stride; t_us counts from
  // begin_root.
  std::vector<telemetry::ProgressSample> samples;
  std::optional<PostMortem> post_mortem;
};

// The per-scan profile attached to a ScanReport.
struct ExplosionProfile {
  // Peak resident set (VmHWM) at end of scan. Nondeterministic, which
  // is why it lives here and not in the deterministic report stats.
  std::uint64_t peak_rss_bytes = 0;
  std::vector<RootProfile> roots;
};

// Ranks fork_sites / solver / heap_by_depth deterministically (by
// count desc, then source position asc). end_root() calls this; it is
// exposed for tests and for callers that assemble RootProfiles by hand.
void rank_root_profile(RootProfile& root);

// Builds the post-mortem from an already-ranked root profile. Site
// strings are copied as-is, so resolve them first (detector) when a
// human will read the result.
[[nodiscard]] PostMortem build_post_mortem(const RootProfile& root);

// Peak resident set size of this process in bytes (VmHWM from
// /proc/self/status). Returns 0 when unavailable.
[[nodiscard]] std::uint64_t peak_rss_bytes();

// The report's "profile" object: a compact JSON object in the
// report_io house style. It is written, never read back: a profile
// carries wall-clock samples, so no cache replays one.
[[nodiscard]] std::string to_json(const ExplosionProfile& profile);

// The recorder. The scan event hook owns one per profiled scan and
// forwards the interpreter's fork/sample events and the solver's
// queries to it.
class PathProfiler {
 public:
  PathProfiler();

  // Root lifecycle. begin_root resets the working state; end_root
  // ranks it and moves it onto the finished list.
  void begin_root(std::string name);
  void end_root(bool incomplete, std::string_view reason);

  // Interpreter hooks. enter_site pushes a fork frame keyed by
  // (kind, file, line); exit_site pops it and attributes the env-count
  // delta: cumulative to this site, cumulative minus nested to self,
  // and the cumulative into the parent frame's nested tally.
  void enter_site(ForkKind kind, std::uint32_t file, std::uint32_t line,
                  std::string_view detail, std::size_t paths_before);
  void exit_site(std::size_t paths_after);

  // Timeline sample on the interpreter's deadline-poll stride. Heap
  // growth since the previous sample is attributed to the current
  // fork depth.
  void sample(std::size_t live_paths, std::size_t objects,
              std::size_t heap_bytes);

  // Solver hook (smt::Checker and the SolverQueryCache hit paths).
  void record_solver(std::string_view sink, std::uint32_t file,
                     std::uint32_t line, double wall_ms, bool cache_hit);

  // Thread-safe copy: finished roots plus the in-progress root (if
  // any), each ranked. Safe to call while a scan is running.
  [[nodiscard]] ExplosionProfile snapshot() const;

  // Moves the finished roots out (end of scan; detector thread only).
  [[nodiscard]] ExplosionProfile take();

 private:
  struct Frame {
    std::size_t site = 0;         // index into state_.fork_sites
    std::size_t paths_before = 0;
    std::uint64_t nested_cumulative = 0;
  };

  struct RootState {
    RootProfile profile;
    std::unordered_map<std::uint64_t, std::size_t> site_index;
    std::unordered_map<std::uint64_t, std::size_t> solver_index;
    std::unordered_map<std::uint32_t, std::size_t> depth_index;
    std::vector<Frame> frames;
    std::uint64_t peak_paths = 0;
    std::uint64_t last_objects = 0;
    std::uint64_t last_bytes = 0;
    bool active = false;
  };

  void note_paths_locked(std::uint64_t live_paths);
  std::size_t site_slot_locked(ForkKind kind, std::uint32_t file,
                               std::uint32_t line, std::string_view detail);
  [[nodiscard]] RootProfile finish_state_locked();

  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point root_epoch_;
  RootState state_;
  std::vector<RootProfile> finished_;
};

}  // namespace uchecker::profile
