// Experiment E4: heap-graph sharing and path scaling.
//
// The paper's key memory argument (§IV-A): although path counts explode
// exponentially (up to 248832 for Cimy User Extra Fields), the heap graph
// shares objects across environments, keeping "objects per path" small —
// under 100 per path for every app, 6-28 in Table III. This bench sweeps
// the branch count of a synthetic upload handler, doubling paths each
// step, twice: with arms that write only a trace, which the interpreter
// merges at each join (objects/path falls with the structural path
// count), and with arms the sink reads, where every path stays live and
// objects/path must stay near-constant through sharing alone. The
// second ladder at 18 ifs demonstrates budget exhaustion, the paper's
// Cimy false negative.
#include <cstdio>

#include "core/detector/detector.h"
#include "corpus/corpus.h"

using uchecker::core::Detector;
using uchecker::core::ScanOptions;
using uchecker::core::ScanReport;
using uchecker::core::Verdict;
using uchecker::corpus::SynthSpec;

int main() {
  std::printf("Path scaling sweep: paths = 2^(ifs+1) on a synthetic "
              "handler\n");
  std::printf("| %4s | %9s | %9s | %8s | %9s | %8s | %8s |\n", "ifs",
              "paths", "objects", "obj/path", "live objs", "live o/p",
              "time(s)");

  bool sharing_holds = true;
  double prev_obj_per_path = 0.0;
  for (int ifs = 1; ifs <= 14; ++ifs) {
    SynthSpec spec;
    spec.name = "scale";
    spec.sequential_ifs = ifs;
    spec.filler_loc = 0;
    spec.filler_files = 0;
    const ScanReport merged = Detector().scan(uchecker::corpus::synth_app(spec));
    spec.arms_reach_sink = true;
    const ScanReport live = Detector().scan(uchecker::corpus::synth_app(spec));
    std::printf("| %4d | %9zu | %9zu | %8.3f | %9zu | %8.1f | %8.3f |\n",
                ifs, merged.paths, merged.objects, merged.objects_per_path,
                live.objects, live.objects_per_path, live.seconds);
    // Sharing: objects/path must not grow with the path count (it in
    // fact shrinks, since shared prefix objects amortize).
    if (prev_obj_per_path > 0.0 &&
        live.objects_per_path > prev_obj_per_path * 1.5) {
      sharing_holds = false;
    }
    prev_obj_per_path = live.objects_per_path;
  }

  std::printf("\nBudget exhaustion (the paper's Cimy-FN mechanism):\n");
  SynthSpec big;
  big.name = "exhaust";
  big.sequential_ifs = 18;  // 2^19 paths > default 100K budget
  big.arms_reach_sink = true;
  big.filler_loc = 0;
  big.filler_files = 0;
  const ScanReport exhausted = Detector().scan(uchecker::corpus::synth_app(big));
  std::printf("  18 ifs: paths=%zu budget_exhausted=%s verdict=%s\n",
              exhausted.paths, exhausted.budget_exhausted ? "yes" : "no",
              std::string(uchecker::core::verdict_name(exhausted.verdict)).c_str());

  const bool exhaustion_ok =
      exhausted.budget_exhausted &&
      exhausted.verdict == Verdict::kAnalysisIncomplete;
  std::printf("\nObject-sharing invariant: %s; budget exhaustion: %s\n",
              sharing_holds ? "HOLDS" : "VIOLATED",
              exhaustion_ok ? "HOLDS" : "VIOLATED");
  return (sharing_holds && exhaustion_ok) ? 0 : 1;
}
