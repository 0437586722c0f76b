#include "support/profile.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "support/jsonlite.h"
#include "support/strutil.h"

namespace uchecker::profile {
namespace {

constexpr std::size_t kPostMortemTopSites = 10;

// Unresolved rendering of a site: the detector replaces this with the
// SourceManager's "name:line" once file ids can be resolved.
std::string raw_site(std::uint32_t file, std::uint32_t line) {
  return "file#" + std::to_string(file) + ":" + std::to_string(line);
}

// Interning key for a fork site / solver origin: (file, line) plus a
// tag so distinct kinds at one line (e.g. a call inside a loop header)
// stay distinct.
std::uint64_t position_key(std::uint32_t tag, std::uint32_t file,
                           std::uint32_t line) {
  return (static_cast<std::uint64_t>(tag) << 56) |
         (static_cast<std::uint64_t>(file & 0xFFFFFFu) << 32) | line;
}

std::string fork_site_json(const ForkSiteStats& s) {
  std::string out = "{";
  out += "\"site\": " + strutil::quote(s.site) + ", ";
  out += "\"kind\": \"" + std::string(fork_kind_name(s.kind)) + "\", ";
  out += "\"detail\": " + strutil::quote(s.detail) + ", ";
  out += "\"visits\": " + std::to_string(s.visits) + ", ";
  out += "\"paths_spawned\": " + std::to_string(s.cumulative_paths) + ", ";
  out += "\"self_paths\": " + std::to_string(s.self_paths);
  out += "}";
  return out;
}

std::string sample_json(const telemetry::ProgressSample& s) {
  std::string out = "{";
  out += "\"t_us\": " + std::to_string(s.t_us) + ", ";
  out += "\"live_paths\": " + std::to_string(s.live_paths) + ", ";
  out += "\"objects\": " + std::to_string(s.objects) + ", ";
  out += "\"heap_bytes\": " + std::to_string(s.heap_bytes);
  out += "}";
  return out;
}

using jsonlite::format_number;

}  // namespace

std::string_view fork_kind_name(ForkKind kind) {
  switch (kind) {
    case ForkKind::kConditional: return "conditional";
    case ForkKind::kSwitch: return "switch";
    case ForkKind::kLoop: return "loop";
    case ForkKind::kForeach: return "foreach";
    case ForkKind::kTryCatch: return "try";
    case ForkKind::kCall: return "call";
  }
  return "invalid";
}

void rank_root_profile(RootProfile& root) {
  std::sort(root.fork_sites.begin(), root.fork_sites.end(),
            [](const ForkSiteStats& a, const ForkSiteStats& b) {
              return std::tuple(a.cumulative_paths, a.self_paths, a.visits,
                                b.file, b.line) >
                     std::tuple(b.cumulative_paths, b.self_paths, b.visits,
                                a.file, a.line);
            });
  std::sort(root.solver.begin(), root.solver.end(),
            [](const SolverSiteStats& a, const SolverSiteStats& b) {
              return std::tuple(a.wall_ms, a.queries, a.cache_hits, b.file,
                                b.line) > std::tuple(b.wall_ms, b.queries,
                                                     b.cache_hits, a.file,
                                                     a.line);
            });
  std::sort(root.heap_by_depth.begin(), root.heap_by_depth.end(),
            [](const HeapDepthStats& a, const HeapDepthStats& b) {
              return a.depth < b.depth;
            });
}

PostMortem build_post_mortem(const RootProfile& root) {
  PostMortem pm;
  pm.reason = root.reason;
  pm.peak_paths = root.peak_paths;
  const std::size_t n =
      std::min(kPostMortemTopSites, root.fork_sites.size());
  pm.top_sites.assign(root.fork_sites.begin(), root.fork_sites.begin() + n);
  // The dominant loop: the top-ranked loop-family site. fork_sites is
  // ranked by cumulative paths, so the first match wins. Explosions
  // with no looping fork at all (Cimy is a pure if/elseif ladder) fall
  // back to the top fork site of any kind — the field always names the
  // construct that dominated the blowup, annotated with its kind.
  const ForkSiteStats* dominant = nullptr;
  for (const ForkSiteStats& s : root.fork_sites) {
    if (s.kind == ForkKind::kLoop || s.kind == ForkKind::kForeach) {
      dominant = &s;
      break;
    }
  }
  if (dominant == nullptr && !root.fork_sites.empty()) {
    dominant = &root.fork_sites.front();
  }
  if (dominant != nullptr) {
    pm.dominant_loop = dominant->site + " (" +
                       std::string(fork_kind_name(dominant->kind)) + " " +
                       dominant->detail + ")";
  }
  pm.live_path_histogram = root.samples;
  return pm;
}

std::uint64_t peak_rss_bytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  std::uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
      kib = value;
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
}

std::string to_json(const ExplosionProfile& profile) {
  std::string out = "{";
  out += "\"peak_rss_bytes\": " + std::to_string(profile.peak_rss_bytes);
  out += ", \"roots\": [";
  for (std::size_t r = 0; r < profile.roots.size(); ++r) {
    const RootProfile& root = profile.roots[r];
    if (r != 0) out += ", ";
    out += "{";
    out += "\"root\": " + strutil::quote(root.root) + ", ";
    out += std::string("\"incomplete\": ") +
           (root.incomplete ? "true" : "false") + ", ";
    out += "\"reason\": " + strutil::quote(root.reason) + ", ";
    out += "\"peak_paths\": " + std::to_string(root.peak_paths) + ", ";
    out += "\"fork_sites\": [";
    for (std::size_t i = 0; i < root.fork_sites.size(); ++i) {
      if (i != 0) out += ", ";
      out += fork_site_json(root.fork_sites[i]);
    }
    out += "], \"solver\": [";
    for (std::size_t i = 0; i < root.solver.size(); ++i) {
      const SolverSiteStats& s = root.solver[i];
      if (i != 0) out += ", ";
      out += "{";
      out += "\"sink\": " + strutil::quote(s.sink) + ", ";
      out += "\"origin\": " + strutil::quote(s.origin) + ", ";
      out += "\"queries\": " + std::to_string(s.queries) + ", ";
      out += "\"cache_hits\": " + std::to_string(s.cache_hits) + ", ";
      out += "\"wall_ms\": " + format_number(s.wall_ms);
      out += "}";
    }
    out += "], \"heap_by_depth\": [";
    for (std::size_t i = 0; i < root.heap_by_depth.size(); ++i) {
      const HeapDepthStats& h = root.heap_by_depth[i];
      if (i != 0) out += ", ";
      out += "{";
      out += "\"depth\": " + std::to_string(h.depth) + ", ";
      out += "\"objects\": " + std::to_string(h.objects) + ", ";
      out += "\"bytes\": " + std::to_string(h.bytes);
      out += "}";
    }
    out += "]";
    if (root.post_mortem.has_value()) {
      const PostMortem& pm = *root.post_mortem;
      out += ", \"post_mortem\": {";
      out += "\"reason\": " + strutil::quote(pm.reason) + ", ";
      out += "\"peak_paths\": " + std::to_string(pm.peak_paths) + ", ";
      out += "\"dominant_loop\": " + strutil::quote(pm.dominant_loop) + ", ";
      out += "\"top_fork_sites\": [";
      for (std::size_t i = 0; i < pm.top_sites.size(); ++i) {
        if (i != 0) out += ", ";
        out += fork_site_json(pm.top_sites[i]);
      }
      out += "], \"live_path_histogram\": [";
      for (std::size_t i = 0; i < pm.live_path_histogram.size(); ++i) {
        if (i != 0) out += ", ";
        out += sample_json(pm.live_path_histogram[i]);
      }
      out += "]}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

PathProfiler::PathProfiler() : root_epoch_(std::chrono::steady_clock::now()) {}

void PathProfiler::begin_root(std::string name) {
  const std::scoped_lock lock(mutex_);
  state_ = RootState{};
  state_.profile.root = std::move(name);
  state_.active = true;
  root_epoch_ = std::chrono::steady_clock::now();
}

void PathProfiler::end_root(bool incomplete, std::string_view reason) {
  const std::scoped_lock lock(mutex_);
  if (!state_.active) return;
  state_.profile.incomplete = incomplete;
  state_.profile.reason = std::string(reason);
  finished_.push_back(finish_state_locked());
  state_ = RootState{};
}

void PathProfiler::note_paths_locked(std::uint64_t live_paths) {
  state_.peak_paths = std::max(state_.peak_paths, live_paths);
}

std::size_t PathProfiler::site_slot_locked(ForkKind kind, std::uint32_t file,
                                           std::uint32_t line,
                                           std::string_view detail) {
  const std::uint64_t key =
      position_key(static_cast<std::uint32_t>(kind), file, line);
  const auto [it, inserted] =
      state_.site_index.try_emplace(key, state_.profile.fork_sites.size());
  if (inserted) {
    ForkSiteStats site;
    site.site = raw_site(file, line);
    site.file = file;
    site.line = line;
    site.kind = kind;
    site.detail = std::string(detail);
    state_.profile.fork_sites.push_back(std::move(site));
  }
  return it->second;
}

void PathProfiler::enter_site(ForkKind kind, std::uint32_t file,
                              std::uint32_t line, std::string_view detail,
                              std::size_t paths_before) {
  const std::scoped_lock lock(mutex_);
  if (!state_.active) return;
  Frame frame;
  frame.site = site_slot_locked(kind, file, line, detail);
  frame.paths_before = paths_before;
  state_.frames.push_back(frame);
  state_.profile.fork_sites[frame.site].visits += 1;
  note_paths_locked(paths_before);
}

void PathProfiler::exit_site(std::size_t paths_after) {
  const std::scoped_lock lock(mutex_);
  if (!state_.active || state_.frames.empty()) return;
  const Frame frame = state_.frames.back();
  state_.frames.pop_back();
  const std::uint64_t cumulative =
      paths_after > frame.paths_before
          ? static_cast<std::uint64_t>(paths_after - frame.paths_before)
          : 0;
  const std::uint64_t self = cumulative > frame.nested_cumulative
                                 ? cumulative - frame.nested_cumulative
                                 : 0;
  ForkSiteStats& site = state_.profile.fork_sites[frame.site];
  site.cumulative_paths += cumulative;
  site.self_paths += self;
  if (!state_.frames.empty()) {
    state_.frames.back().nested_cumulative += cumulative;
  }
  note_paths_locked(paths_after);
}

void PathProfiler::sample(std::size_t live_paths, std::size_t objects,
                          std::size_t heap_bytes) {
  const std::scoped_lock lock(mutex_);
  if (!state_.active) return;
  telemetry::ProgressSample s;
  s.t_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - root_epoch_)
          .count());
  s.live_paths = live_paths;
  s.objects = objects;
  s.heap_bytes = heap_bytes;
  state_.profile.samples.push_back(s);
  note_paths_locked(live_paths);
  // Attribute growth since the previous sample to the current depth.
  const auto depth = static_cast<std::uint32_t>(state_.frames.size());
  const std::uint64_t d_objects =
      objects > state_.last_objects ? objects - state_.last_objects : 0;
  const std::uint64_t d_bytes =
      heap_bytes > state_.last_bytes ? heap_bytes - state_.last_bytes : 0;
  state_.last_objects = objects;
  state_.last_bytes = heap_bytes;
  if (d_objects == 0 && d_bytes == 0) return;
  const auto [it, inserted] = state_.depth_index.try_emplace(
      depth, state_.profile.heap_by_depth.size());
  if (inserted) {
    HeapDepthStats h;
    h.depth = depth;
    state_.profile.heap_by_depth.push_back(h);
  }
  HeapDepthStats& h = state_.profile.heap_by_depth[it->second];
  h.objects += d_objects;
  h.bytes += d_bytes;
}

void PathProfiler::record_solver(std::string_view sink, std::uint32_t file,
                                 std::uint32_t line, double wall_ms,
                                 bool cache_hit) {
  const std::scoped_lock lock(mutex_);
  if (!state_.active) return;
  // (file, line) identifies the sink occurrence; the 0x50 tag keeps
  // solver keys out of the fork-site tag space.
  const std::uint64_t key = position_key(0x50u, file, line);
  const auto [it, inserted] =
      state_.solver_index.try_emplace(key, state_.profile.solver.size());
  if (inserted) {
    SolverSiteStats s;
    s.sink = std::string(sink);
    s.origin = raw_site(file, line);
    s.file = file;
    s.line = line;
    state_.profile.solver.push_back(std::move(s));
  }
  SolverSiteStats& s = state_.profile.solver[it->second];
  if (cache_hit) {
    s.cache_hits += 1;
  } else {
    s.queries += 1;
    s.wall_ms += wall_ms;
  }
}

RootProfile PathProfiler::finish_state_locked() {
  RootProfile root = std::move(state_.profile);
  root.peak_paths = state_.peak_paths;
  rank_root_profile(root);
  return root;
}

ExplosionProfile PathProfiler::snapshot() const {
  const std::scoped_lock lock(mutex_);
  ExplosionProfile out;
  out.roots = finished_;
  if (state_.active) {
    RootProfile live = state_.profile;  // copy; leave the state running
    live.peak_paths = state_.peak_paths;
    rank_root_profile(live);
    out.roots.push_back(std::move(live));
  }
  return out;
}

ExplosionProfile PathProfiler::take() {
  const std::scoped_lock lock(mutex_);
  ExplosionProfile out;
  out.roots = std::move(finished_);
  finished_.clear();
  return out;
}

}  // namespace uchecker::profile
