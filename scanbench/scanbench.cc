// Scan benchmark: one workload per process, closed-loop clients.
//
//   scanbench --workload table3|crawl|paths --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Set-up (timed as setup_s, median of kSetups) generates the inputs from
// the seed, constructs a Detector and runs one untimed warm-up pass.
// Timed passes then repeat for at least S seconds, each with a fresh
// Detector so no pass inherits another's solver cache. With --trace 1
// each timed pass is followed by a pass of the traced pipeline
// (trace.h), both parsing serially, and the run reports per-layer
// metrics instead of end-to-end ones. After every set-up and timed pass
// three fixed kernels time the host (HostSpeed), and the end-to-end
// timings are scaled to a quiet host. The last line of stdout is the
// result object; a failed correctness check sets "correct": false and
// exits 1.
#include <sys/mman.h>
#include <z3.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector/report_io.h"
#include "core/detector/scan_many.h"
#include "corpus/corpus.h"
#include "support/profile.h"
#include "support/strutil.h"
#include "trace.h"

namespace scanbench {
namespace {

using namespace uchecker;        // NOLINT
using namespace uchecker::core;  // NOLINT

constexpr int kSetups = 3;
constexpr int kMinPasses = 3;
constexpr std::size_t kMinBeyondP90 = 10;

template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

// splitmix64: a portable generator, so a seed means the same inputs on
// every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// Inverse of the standard normal CDF, by bisection on erfc.
double probit(double p) {
  double lo = -10.0;
  double hi = 10.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

struct Workload {
  std::string name;
  std::vector<Application> apps;
  std::vector<bool> truth;  // ground truth: vulnerable
  unsigned workers = 1;     // 1 = one serial client; >1 = scan_many
  ScanOptions options;
};

// Table III: the paper's 44 apps, fixed; the seed is not used.
Workload make_table3() {
  Workload w;
  w.name = "table3";
  for (corpus::CorpusEntry& entry : corpus::full_corpus()) {
    w.truth.push_back(entry.ground_truth_vulnerable);
    w.apps.push_back(std::move(entry.app));
  }
  return w;
}

// The §IV-B crawl: kPlugins synthetic plugins, ~4% planted vulnerable,
// scanned by two scan_many workers sharing one Detector. Per-plugin
// attributes are drawn from the seed, but stratified so that the total
// work of a pass does not depend on it: filler sizes come one from each
// of kPlugins equal-probability strata of the lognormal, the if/switch/
// file counts are balanced multisets, and the vulnerable plugins use a
// fixed multiset of handler shapes (each shape twice), so every pass
// makes the same solver queries.
//
// The lognormal is fitted to real plugin sizes: the 18 Table III rows
// that report LoC (corpus PaperRow::loc, 80 to 94,659) have a mean log
// size of 7.973 (a median of 2,903 LoC) and a log standard deviation of
// 1.81. Draws are clamped to 0.2-30 kLoC, which puts 7% of the plugins
// at 0.2 kLoC and 10% at 30 kLoC; the mean is 7.5 kLoC.
Workload make_crawl(std::uint64_t seed) {
  constexpr std::size_t kPlugins = 300;
  constexpr double kMedianLoc = 2903.0;
  constexpr double kSigma = 1.81;
  struct Shape {
    int ifs;
    int switch_ways;
  };
  constexpr Shape kVulnerableShapes[] = {{1, 0}, {2, 0}, {3, 0}, {4, 0},
                                         {5, 0}, {3, 3}};
  constexpr std::size_t kVulnerable = 2 * std::size(kVulnerableShapes);

  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  std::vector<std::size_t> loc(kPlugins);
  for (std::size_t i = 0; i < kPlugins; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / kPlugins;
    const double v = kMedianLoc * std::exp(kSigma * probit(u));
    loc[i] = static_cast<std::size_t>(std::clamp(v, 200.0, 30000.0));
  }
  std::vector<int> files(kPlugins);
  std::vector<int> ifs(kPlugins);
  std::vector<int> ways(kPlugins, 0);
  std::vector<std::size_t> order(kPlugins);
  for (std::size_t i = 0; i < kPlugins; ++i) {
    files[i] = 1 + static_cast<int>(i % 6);
    ifs[i] = 1 + static_cast<int>(i % 5);
    if (i < kPlugins / 3) ways[i] = std::array{2, 3, 5}[i % 3];
    order[i] = i;
  }
  rng.shuffle(loc);
  rng.shuffle(files);
  rng.shuffle(ifs);
  rng.shuffle(ways);
  // The first kVulnerable entries of `order` are planted. Plugins of one
  // shape sit at least kShapeGap apart, so the two workers never solve
  // the same query at once and every pass misses the cache exactly once
  // per shape.
  constexpr std::size_t kShapes = std::size(kVulnerableShapes);
  constexpr std::size_t kShapeGap = 50;
  const auto spread_out = [&order] {
    for (std::size_t k = 0; k + kShapes < kVulnerable; ++k) {
      const std::size_t a = order[k];
      const std::size_t b = order[k + kShapes];
      if ((a > b ? a - b : b - a) < kShapeGap) return false;
    }
    return true;
  };
  do {
    rng.shuffle(order);
  } while (!spread_out());

  Workload w;
  w.name = "crawl";
  w.workers = 2;
  w.options.parse_threads = 1;
  w.apps.resize(kPlugins);
  w.truth.assign(kPlugins, false);
  for (std::size_t k = 0; k < kPlugins; ++k) {
    const std::size_t i = order[k];
    corpus::SynthSpec spec;
    spec.name = concat("plugin-", std::to_string(seed), "-", std::to_string(i));
    spec.filler_loc = loc[i];
    spec.filler_files = files[i];
    spec.vulnerable = k < kVulnerable;
    if (spec.vulnerable) {
      const Shape& shape = kVulnerableShapes[k % kShapes];
      spec.sequential_ifs = shape.ifs;
      spec.switch_ways = shape.switch_ways;
    } else {
      spec.sequential_ifs = ifs[i];
      spec.switch_ways = ways[i];
    }
    w.truth[i] = spec.vulnerable;
    w.apps[i] = corpus::synth_app(spec);
  }
  return w;
}

// Path explosion: Avatar Uploader (exactly 9,216 paths) plus vulnerable
// if/switch ladders. A ladder has 2^(ifs+1) * max(1, switch_ways) paths
// (the sink's own `if` doubles it), and there is one ladder per
// solver-cache key, so each in-budget ladder pays one Z3 call:
//  - plain ladders with 8-14 ifs (512 to 32,768 paths);
//  - two small switch ladders (8 and 9 ifs) and two large ones (12 and
//    13 ifs). Per pair the seed draws widths (5, 2) or (3, 3), which give
//    the pair the same path total, so the pass's work is fixed and the
//    median app is Avatar Uploader or the 12-if plain ladder;
//  - three ladders with 17 ifs, which exceed the 100,000-path budget at
//    the 17th if (131,072 paths) whatever their switch and end
//    incomplete, the mechanism behind Cimy's miss. As 3 of 15 apps and
//    the slowest by far, they hold the pooled p90 inside one group of
//    equal-cost scans.
// The seed also draws the 17-if ladders' switches and the filler. Apps
// run in ascending order of paths: a scan pays for re-faulting memory
// its predecessor returned, so the order is fixed, and the app after
// the previous pass's largest ladders is the smallest one.
Workload make_paths(std::uint64_t seed) {
  constexpr int kWays[] = {2, 3, 5};
  constexpr std::array<int, 2> kPairWays[] = {{5, 2}, {3, 3}};
  constexpr std::uint64_t kAvatarPaths = 9216;

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<corpus::SynthSpec> ladders;
  const auto add = [&ladders](int ifs, int ways) {
    corpus::SynthSpec spec;
    spec.sequential_ifs = ifs;
    spec.switch_ways = ways;
    ladders.push_back(spec);
  };
  for (int ifs = 8; ifs <= 14; ++ifs) add(ifs, 0);
  for (const int first_ifs : {8, 12}) {
    const std::array<int, 2>& ways = kPairWays[rng.below(2)];
    add(first_ifs, ways[0]);
    add(first_ifs + 1, ways[1]);
  }
  for (int i = 0; i < 3; ++i) add(17, kWays[rng.below(3)]);
  const auto paths_of = [](const corpus::SynthSpec& spec) {
    return (std::uint64_t{2} << spec.sequential_ifs) *
           static_cast<std::uint64_t>(std::max(1, spec.switch_ways));
  };
  std::stable_sort(ladders.begin(), ladders.end(),
                   [&](const corpus::SynthSpec& a, const corpus::SynthSpec& b) {
                     return paths_of(a) < paths_of(b);
                   });

  Workload w;
  w.name = "paths";
  bool avatar_added = false;
  for (std::size_t i = 0; i < ladders.size(); ++i) {
    corpus::SynthSpec& spec = ladders[i];
    if (!avatar_added && paths_of(spec) > kAvatarPaths) {
      avatar_added = true;
      for (corpus::CorpusEntry& entry : corpus::known_vulnerable()) {
        if (entry.app.name.rfind("Avatar Uploader", 0) == 0) {
          w.truth.push_back(entry.ground_truth_vulnerable);
          w.apps.push_back(std::move(entry.app));
        }
      }
    }
    spec.name = concat("ladder-", std::to_string(seed), "-",
                       std::to_string(i));
    spec.vulnerable = true;
    spec.filler_loc = 300 + rng.below(1500);
    w.truth.push_back(true);
    w.apps.push_back(corpus::synth_app(spec));
  }
  return w;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "table3") return make_table3();
  if (name == "crawl") return make_crawl(seed);
  if (name == "paths") return make_paths(seed);
  return std::nullopt;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PassResult {
  double wall_s = 0.0;
  double busy_s = 0.0;            // summed per-app scan time
  std::vector<double> scan_ms;    // time to verdict, per app
  std::vector<ScanReport> reports;
};

// One pass of the shipped scanner: Detector::scan plus
// report_io::to_json per app, with a fresh Detector.
PassResult run_pass(const Workload& w, const ScanOptions& options) {
  const Detector detector(options);
  PassResult pass;
  const Clock::time_point start = Clock::now();
  if (w.workers <= 1) {
    pass.reports.reserve(w.apps.size());
    for (const Application& app : w.apps) {
      const Clock::time_point t0 = Clock::now();
      ScanReport report = detector.scan(app);
      static_cast<void>(to_json(report));
      pass.scan_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      pass.reports.push_back(std::move(report));
    }
  } else {
    ScanManyOptions options;
    options.threads = w.workers;
    pass.reports = scan_many(detector, w.apps, options);
    for (const ScanReport& report : pass.reports) {
      static_cast<void>(to_json(report));
      pass.scan_ms.push_back(report.seconds * 1000.0);
    }
  }
  pass.wall_s = seconds_since(start);
  for (const double ms : pass.scan_ms) pass.busy_s += ms / 1000.0;
  return pass;
}

struct TracedPass {
  double wall_s = 0.0;
  std::vector<ScanReport> reports;
};

// One pass of the traced pipeline; thread t records into logs[t] and
// adds to counts[t].
TracedPass run_traced_pass(const Workload& w, std::uint32_t pass_index,
                           std::vector<SpanLog>& logs,
                           std::vector<LayerCounts>& counts) {
  SolverQueryCache cache;  // a fresh detector's cache
  TracedPass pass;
  pass.reports.resize(w.apps.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::size_t t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= w.apps.size()) return;
      pass.reports[i] =
          traced_scan(w.apps[i], w.options, cache, logs[t],
                      static_cast<std::uint32_t>(i), pass_index, counts[t]);
    }
  };
  const Clock::time_point start = Clock::now();
  if (logs.size() == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < logs.size(); ++t) {
      threads.emplace_back(worker, t);
    }
    for (std::thread& t : threads) t.join();
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

// Host-speed reference. The host's other tenants slow every workload by
// up to 1.8x for minutes at a time, in CPU time as much as in wall time,
// and memory-heavy code more than arithmetic. So after every pass a run
// times three fixed kernels, one per resource the scanner leans on: a
// dependent multiply-add chain (compute); four rounds of building and
// freeing a 40,000-node ordered map of heap strings (allocation and
// pointer chasing, as the scanner's AST and heap graph do); and touching
// every page of eight fresh 4 MB mappings (page faults, as each scan's
// Z3 context takes). No one kernel tracks the scanner: on a busy host the
// allocation kernel slows 2-3x more than it, the compute kernel less.
// The run's slowdown is the geometric mean of the kernels' median times,
// each over its time on a quiet 4-vCPU Xeon guest, and end-to-end
// timings are divided by it: they read as on that quiet guest. The
// kernels allocate with std::malloc and mmap, not operator new, so that
// replacing the scanner's operator new cannot move them; the map still
// shares the malloc heap the scanner leaves behind (README.md).
constexpr double kComputeQuietS = 0.020;
constexpr double kAllocQuietS = 0.055;
constexpr double kFaultQuietS = 0.012;

template <typename T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <typename U>
  explicit MallocAllocator(const MallocAllocator<U>& /*other*/) {}
  T* allocate(std::size_t n) {
    void* p = std::malloc(n * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t /*n*/) { std::free(p); }
  friend bool operator==(MallocAllocator, MallocAllocator) { return true; }
};

class HostSpeed {
 public:
  void sample() {
    Clock::time_point t0 = Clock::now();
    volatile std::uint64_t x = 1;
    for (int i = 0; i < 15'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    compute_s_.push_back(seconds_since(t0));

    using String =
        std::basic_string<char, std::char_traits<char>, MallocAllocator<char>>;
    using Map =
        std::map<std::uint32_t, String, std::less<>,
                 MallocAllocator<std::pair<const std::uint32_t, String>>>;
    t0 = Clock::now();
    for (std::uint64_t round = 0; round < 4; ++round) {
      Map map;
      std::uint64_t key = round;
      for (int i = 0; i < 40'000; ++i) {
        key = key * 6364136223846793005ULL + 1442695040888963407ULL;
        map.emplace(static_cast<std::uint32_t>(key >> 32), String(24, 'x'));
      }
    }
    alloc_s_.push_back(seconds_since(t0));

    // 4 MB at a time, so that the kernel barely raises peak_rss_mb.
    constexpr std::size_t kMapBytes = std::size_t{4} << 20;
    t0 = Clock::now();
    for (int round = 0; round < 8; ++round) {
      void* map = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (map == MAP_FAILED) throw std::bad_alloc();
      auto* bytes = static_cast<volatile char*>(map);
      for (std::size_t i = 0; i < kMapBytes; i += 4096) bytes[i] = 1;
      munmap(map, kMapBytes);
    }
    fault_s_.push_back(seconds_since(t0));
  }

  // > 1 when the host runs slower than the quiet guest.
  [[nodiscard]] double slowdown() const {
    return std::cbrt(median(compute_s_) / kComputeQuietS *
                     median(alloc_s_) / kAllocQuietS *
                     median(fault_s_) / kFaultQuietS);
  }
  [[nodiscard]] double compute_s() const { return median(compute_s_); }
  [[nodiscard]] double alloc_s() const { return median(alloc_s_); }
  [[nodiscard]] double fault_s() const { return median(fault_s_); }

 private:
  std::vector<double> compute_s_;
  std::vector<double> alloc_s_;
  std::vector<double> fault_s_;
};

bool decided(Verdict v) {
  return v == Verdict::kVulnerable || v == Verdict::kNotVulnerable;
}

// Accumulates hard-check failures; any entry fails the run.
struct Checks {
  std::vector<std::string> failures;
  void fail(std::string message) {
    std::fprintf(stderr, "scanbench: check failed: %s\n", message.c_str());
    failures.push_back(std::move(message));
  }
};

void check_same_verdicts(const std::vector<ScanReport>& reference,
                         const std::vector<ScanReport>& reports,
                         const std::string& what, Checks& checks) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reports[i].verdict != reference[i].verdict) {
      checks.fail(what + ": verdict of " + reference[i].app_name +
                  " changed from " +
                  std::string(verdict_slug(reference[i].verdict)) + " to " +
                  std::string(verdict_slug(reports[i].verdict)));
    }
    if (reports[i].verdict == Verdict::kAnalysisError) {
      checks.fail(what + ": " + reports[i].app_name +
                  " ended in analysis_error");
    }
  }
}

// The traced pipeline must do the work Detector::scan did.
void check_traced_matches(const std::vector<ScanReport>& reference,
                          const std::vector<ScanReport>& traced,
                          Checks& checks) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const ScanReport& a = reference[i];
    const ScanReport& b = traced[i];
    if (a.paths != b.paths || a.objects != b.objects || a.roots != b.roots ||
        a.pruned_roots != b.pruned_roots ||
        a.findings.size() != b.findings.size() ||
        a.total_loc != b.total_loc) {
      checks.fail("traced pipeline disagrees with Detector::scan on " +
                  a.app_name);
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(
            strutil::trim(std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

std::string z3_version() {
  unsigned major = 0;
  unsigned minor = 0;
  unsigned build = 0;
  unsigned revision = 0;
  Z3_get_version(&major, &minor, &build, &revision);
  return concat(std::to_string(major), ".", std::to_string(minor), ".",
                std::to_string(build));
}

// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += strutil::quote(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           strutil::quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed) return std::nullopt;
  return args;
}

int run(const Args& args) {
  Checks checks;
  std::error_code ignored;  // a missing directory fails the writes below
  std::filesystem::create_directories(args.out_dir, ignored);

  // Set-up, repeated: generate, construct, warm up. The first warm-up
  // pass's reports are the reference every later pass must reproduce.
  std::vector<double> setup_s;
  HostSpeed host;
  std::optional<Workload> workload;
  std::vector<ScanReport> reference;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    workload = make_workload(args.workload, args.seed);
    if (!workload.has_value()) {
      std::fprintf(stderr, "scanbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    PassResult warm = run_pass(*workload, workload->options);
    setup_s.push_back(seconds_since(t0));
    host.sample();
    if (reference.empty()) {
      reference = std::move(warm.reports);
    } else {
      check_same_verdicts(reference, warm.reports, "warm-up", checks);
    }
  }
  const Workload& w = *workload;
  const std::size_t apps = w.apps.size();

  // Timed passes of the shipped scanner. In a traced run each is followed
  // by a traced pass (same inputs, same client shape, spans per layer),
  // so both see the same host, and both parse serially, as the traced
  // pipeline does, so that trace.overhead_ratio compares the same work.
  ScanOptions timed_options = w.options;
  if (args.trace) timed_options.parse_threads = 1;
  // Enough samples that kMinBeyondP90 of them can lie beyond p90.
  const std::size_t min_passes = std::max<std::size_t>(
      kMinPasses, (10 * (kMinBeyondP90 + 1) + apps - 1) / apps);
  std::vector<double> wall_s;
  std::vector<double> utilization;
  std::vector<double> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t correct = 0;
  const Clock::time_point epoch = Clock::now();
  std::vector<SpanLog> logs;
  if (args.trace) {
    for (unsigned t = 0; t < w.workers; ++t) logs.emplace_back(epoch, t + 1);
  }
  std::vector<double> traced_wall_s;
  std::vector<LayerCounts> thread_counts(logs.size());
  std::vector<ScanReport> traced_reports;  // of every traced pass
  {
    const Clock::time_point t0 = Clock::now();
    while (wall_s.size() < min_passes || seconds_since(t0) < args.seconds) {
      PassResult pass = run_pass(w, timed_options);
      host.sample();
      check_same_verdicts(reference, pass.reports, "timed pass", checks);
      wall_s.push_back(pass.wall_s);
      utilization.push_back(pass.busy_s / (w.workers * pass.wall_s));
      samples.insert(samples.end(), pass.scan_ms.begin(), pass.scan_ms.end());
      for (std::size_t i = 0; i < apps; ++i) {
        const Verdict v = pass.reports[i].verdict;
        attempted += 1;
        failed += decided(v) ? 0 : 1;
        correct += (v == Verdict::kVulnerable) == w.truth[i] && decided(v);
      }
      if (!args.trace) continue;
      TracedPass traced = run_traced_pass(
          w, static_cast<std::uint32_t>(traced_wall_s.size()), logs,
          thread_counts);
      check_same_verdicts(reference, traced.reports, "traced pass", checks);
      check_traced_matches(reference, traced.reports, checks);
      traced_wall_s.push_back(traced.wall_s);
      for (ScanReport& r : traced.reports) {
        attempted += 1;
        failed += decided(r.verdict) ? 0 : 1;
        traced_reports.push_back(std::move(r));
      }
    }
  }
  // p50 is the median over apps of each app's median over passes. On
  // table3 the pooled median falls at the step between 23 sub-5 ms apps
  // and 21 apps that call Z3, so in every pass it is the slowest fast
  // scan, and one disturbed fast scan moves it; each app's own median
  // drops such samples first. p90 is pooled over all passes so that
  // enough samples lie beyond it.
  std::vector<double> app_p50(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<double> app_ms;  // samples hold pass after pass
    for (std::size_t k = i; k < samples.size(); k += apps) {
      app_ms.push_back(samples[k]);
    }
    app_p50[i] = median(std::move(app_ms));
  }
  const double p50 = median(app_p50);
  std::sort(samples.begin(), samples.end());
  const double p90 = percentile(samples, 0.90);
  const auto beyond = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p90));
  if (beyond < kMinBeyondP90) {
    checks.fail(concat("only ", std::to_string(beyond), " samples beyond p90"));
  }

  const double slowdown = host.slowdown();
  const double raw_apps_per_s = static_cast<double>(apps) / median(wall_s);

  std::vector<Metric> metrics;
  std::size_t traced_passes = 0;
  if (!args.trace) {
    const double n = static_cast<double>(attempted);
    metrics = {
        {"setup_s", median(setup_s) / slowdown, "s"},
        {"apps_per_s", raw_apps_per_s * slowdown, "1/s"},
        {"scan_ms_p50", p50 / slowdown, "ms"},
        {"scan_ms_p90", p90 / slowdown, "ms"},
        {"decided_ratio", static_cast<double>(attempted - failed) / n, "ratio"},
        {"correct_ratio", static_cast<double>(correct) / n, "ratio"},
        {"peak_rss_mb",
         static_cast<double>(profile::peak_rss_bytes()) / (1024.0 * 1024.0),
         "MB"},
    };
  } else {
    traced_passes = traced_wall_s.size();
    LayerCounts counts;
    for (const LayerCounts& c : thread_counts) counts += c;
    // Summed over every traced report.
    const auto total = [&traced_reports](auto field) {
      double sum = 0.0;
      for (const ScanReport& r : traced_reports) {
        sum += static_cast<double>(field(r));
      }
      return sum;
    };
    const double roots = total([](const ScanReport& r) { return r.roots; });
    const double total_loc =
        total([](const ScanReport& r) { return r.total_loc; });
    const double paths = total([](const ScanReport& r) { return r.paths; });
    const double objects =
        total([](const ScanReport& r) { return r.objects; });
    const double solver_calls =
        total([](const ScanReport& r) { return r.solver_calls; });
    const double cache_hits =
        total([](const ScanReport& r) { return r.solver_cache_hits; });
    std::size_t files_per_pass = 0;
    for (const Application& app : w.apps) files_per_pass += app.files.size();

    // Self time = span duration minus the direct children's durations.
    std::vector<std::vector<double>> self_ms(
        kScan + 1, std::vector<double>(traced_passes, 0.0));
    std::vector<double> scan_ms(traced_passes, 0.0);
    for (const SpanLog& log : logs) {
      const std::vector<SpanRecord>& spans = log.spans();
      for (const SpanRecord& s : spans) {
        const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        self_ms[s.layer][s.pass] += ms;
        if (s.parent >= 0) {
          const SpanRecord& parent = spans[static_cast<std::size_t>(s.parent)];
          self_ms[parent.layer][s.pass] -= ms;
        } else {
          scan_ms[s.pass] += ms;
        }
      }
    }
    double scan_total = 0.0;
    for (const double ms : scan_ms) scan_total += ms;
    const auto per_pass_ms = [&](Layer layer) {
      return median(self_ms[layer]);
    };
    const auto total_ms = [&](Layer layer) {
      double total = 0.0;
      for (const double ms : self_ms[layer]) total += ms;
      return total;
    };
    const auto share = [&](std::initializer_list<Layer> layers) {
      double total = 0.0;
      for (const Layer layer : layers) total += total_ms(layer);
      return ratio(total, scan_total);
    };
    double attributed_ms = 0.0;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      attributed_ms += total_ms(static_cast<Layer>(i));
    }
    const double passes = static_cast<double>(traced_passes);
    std::vector<double> overhead;  // each traced pass ÷ the pass before it
    for (std::size_t i = 0; i < traced_passes; ++i) {
      overhead.push_back(traced_wall_s[i] / wall_s[i]);
    }
    const auto per_pass = [&](double count) { return count / passes; };

    metrics = {
        {"lex.ms", per_pass_ms(kLex), "ms"},
        {"lex.share", share({kLex}), "ratio"},
        {"lex.tokens", per_pass(static_cast<double>(counts.tokens)), "count"},
        {"lex.tokens_per_s",
         ratio(static_cast<double>(counts.tokens), total_ms(kLex) / 1000.0),
         "1/s"},
        {"parse.ms", per_pass_ms(kParse), "ms"},
        {"parse.share", share({kParse}), "ratio"},
        {"parse.files", static_cast<double>(files_per_pass), "count"},
        {"parse.kloc", per_pass(total_loc) / 1000.0, "kloc"},
        {"callgraph.ms", per_pass_ms(kCallgraph), "ms"},
        {"callgraph.share", share({kCallgraph}), "ratio"},
        {"locality.ms", per_pass_ms(kLocality), "ms"},
        {"locality.share", share({kLocality}), "ratio"},
        {"locality.roots", per_pass(roots), "count"},
        {"locality.analyzed_ratio",
         ratio(total([](const ScanReport& r) { return r.analyzed_loc; }),
               total_loc),
         "ratio"},
        {"frontend.share", share({kLex, kParse, kCallgraph, kLocality}),
         "ratio"},
        {"staticpass.ms", per_pass_ms(kStaticpass), "ms"},
        {"staticpass.share", share({kStaticpass}), "ratio"},
        {"staticpass.pruned_ratio",
         ratio(total([](const ScanReport& r) { return r.pruned_roots; }),
               roots),
         "ratio"},
        {"staticpass.summary_hits",
         per_pass(
             total([](const ScanReport& r) { return r.summary_cache_hits; })),
         "count"},
        {"smt.checker_ms", per_pass_ms(kSmt), "ms"},
        {"smt.share", share({kSmt}), "ratio"},
        {"smt.checkers", per_pass(static_cast<double>(counts.checkers)),
         "count"},
        {"interp.ms", per_pass_ms(kInterp), "ms"},
        {"interp.share", share({kInterp}), "ratio"},
        {"interp.roots",
         per_pass(roots -
                  total([](const ScanReport& r) { return r.pruned_roots; })),
         "count"},
        {"interp.paths", per_pass(paths), "count"},
        {"interp.objects", per_pass(objects), "count"},
        {"interp.objects_per_path", ratio(objects, paths), "ratio"},
        {"interp.cons_hits",
         per_pass(total([](const ScanReport& r) { return r.cons_hits; })),
         "count"},
        {"interp.budget_exhausted",
         per_pass(static_cast<double>(counts.budget_exhausted)), "count"},
        {"interp.accounted_mb",
         per_pass(total([](const ScanReport& r) {
           return r.accounted_bytes;
         })) / (1024.0 * 1024.0),
         "MB"},
        {"vulnmodel.ms", per_pass_ms(kVulnmodel), "ms"},
        {"vulnmodel.share", share({kVulnmodel}), "ratio"},
        {"vulnmodel.sinks", per_pass(static_cast<double>(counts.sinks)),
         "count"},
        {"vulnmodel.solver_calls", per_pass(solver_calls), "count"},
        {"vulnmodel.retries",
         per_pass(total([](const ScanReport& r) { return r.solver_retries; })),
         "count"},
        {"vulnmodel.ms_per_call", ratio(total_ms(kVulnmodel), solver_calls),
         "ms"},
        {"vulnmodel.cache_hit_ratio",
         ratio(cache_hits, cache_hits + solver_calls), "ratio"},
        {"report.ms", per_pass_ms(kReport), "ms"},
        {"report.share", share({kReport}), "ratio"},
        {"report.bytes", per_pass(static_cast<double>(counts.report_bytes)),
         "bytes"},
        {"detector.unattributed_ratio",
         ratio(scan_total - attributed_ms, scan_total), "ratio"},
        {"trace.overhead_ratio", median(overhead), "ratio"},
        {"scan_many.utilization", median(utilization), "ratio"},
    };

    std::vector<std::string> names;
    for (const Application& app : w.apps) names.push_back(app.name);
    const std::string trace_path = concat(
        args.out_dir, "/", w.name, "-seed", std::to_string(args.seed),
        ".trace.json");
    if (!write_chrome_trace(trace_path, logs, names)) {
      checks.fail("cannot write " + trace_path);
    }
  }

  const std::string meta = concat(
      "{\"workload\": ", strutil::quote(w.name),
      ", \"seed\": ", std::to_string(args.seed),
      ", \"seconds\": ", number(args.seconds),
      ", \"trace\": ", args.trace ? "true" : "false",
      ", \"apps_per_pass\": ", std::to_string(apps),
      ", \"clients\": ", std::to_string(w.workers),
      ", \"setup_passes\": ", std::to_string(kSetups),
      ", \"timed_passes\": ", std::to_string(wall_s.size()),
      ", \"traced_passes\": ", std::to_string(traced_passes),
      ", \"scan_samples\": ", std::to_string(samples.size()),
      ", \"samples_beyond_p90\": ", std::to_string(beyond),
      ", \"host_slowdown\": ", number(slowdown),
      ", \"compute_kernel_s\": ", number(host.compute_s()),
      ", \"alloc_kernel_s\": ", number(host.alloc_s()),
      ", \"fault_kernel_s\": ", number(host.fault_s()),
      ", \"unscaled\": {\"setup_s\": ", number(median(setup_s)),
      ", \"apps_per_s\": ", number(raw_apps_per_s),
      ", \"scan_ms_p50\": ", number(p50),
      ", \"scan_ms_p90\": ", number(p90), "}",
      ", \"nproc\": ", std::to_string(std::thread::hardware_concurrency()),
      ", \"cpu\": ", strutil::quote(cpu_model()),
      ", \"compiler\": ", strutil::quote(SCANBENCH_COMPILER),
      ", \"cxx_flags\": ", strutil::quote(SCANBENCH_CXX_FLAGS),
      ", \"build_type\": ", strutil::quote(SCANBENCH_BUILD_TYPE),
      ", \"z3\": ", strutil::quote(z3_version()),
      ", \"commit\": ", strutil::quote(args.commit), "}");
  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + strutil::quote(checks.failures[i]);
  }
  failures += "]";
  const bool ok = checks.failures.empty();
  const std::string result = concat(
      "{\"correct\": ", ok ? "true" : "false",
      ", \"attempted\": ", std::to_string(attempted),
      ", \"failed\": ", std::to_string(failed),
      ", \"metrics\": ", metrics_json(metrics), "}");

  const std::string result_path = concat(
      args.out_dir, "/", w.name, "-seed", std::to_string(args.seed), "-trace",
      args.trace ? "1" : "0", ".json");
  std::ofstream out(result_path);
  out << "{\"meta\": " << meta << ", \"check_failures\": " << failures
      << ", \"result\": " << result << "}\n";
  if (!out.flush()) {
    std::fprintf(stderr, "scanbench: cannot write %s\n", result_path.c_str());
  }
  std::printf("meta: %s\n%s\n", meta.c_str(), result.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace scanbench

int main(int argc, char** argv) {
  const std::optional<scanbench::Args> args =
      scanbench::parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: scanbench --workload table3|crawl|paths --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n");
    return 2;
  }
  return scanbench::run(*args);
}
