// Tests for finding provenance: taint-path extraction over the heap
// graph, branch-guard extraction, witness decoding, fingerprints,
// and the end-to-end evidence bundle on detector findings (including
// the corpus-wide acceptance loop and SARIF round-trips).
#include "core/heapgraph/evidence.h"

#include <gtest/gtest.h>

#include <chrono>

#include "core/detector/detector.h"
#include "core/detector/report_io.h"
#include "core/vulnmodel/vulnmodel.h"
#include "corpus/corpus.h"
#include "phpparse/parser.h"
#include "support/diag.h"
#include "support/sarif_export.h"
#include "support/source.h"

namespace uchecker::core {
namespace {

// Parses one PHP snippet, runs the interpreter and the vulnerability
// model with evidence collection on.
struct EvidenceRun {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  InterpResult exec;
  smt::Checker checker;
  VulnModelResult result;

  explicit EvidenceRun(const std::string& src, VulnModelOptions options = {}) {
    options.collect_evidence = true;
    const FileId id = sources.add_file("t.php", "<?php\n" + src);
    arenas.emplace_back();
    files.push_back(phpparse::parse_php(*sources.file(id), diags, arenas.back()));
    std::vector<const phpast::PhpFile*> ptrs{&files[0]};
    program = build_program(ptrs);
    Interpreter interp(program, diags);
    AnalysisRoot root;
    root.file = &files[0];
    exec = interp.run(root);
    result = check_sinks(exec, checker, options);
  }
};

Application one_file_app(const std::string& php) {
  Application app;
  app.name = "test-app";
  app.files.push_back(AppFile{"index.php", "<?php\n" + php});
  return app;
}

// --- taint-path extraction -------------------------------------------

TEST(Evidence, TaintPathWalksSourceToSink) {
  EvidenceRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
                "'/www/' . $_FILES['f']['name']);");
  ASSERT_TRUE(r.result.vulnerable);
  const SinkVerdict& v = r.result.verdicts[0];
  ASSERT_FALSE(v.taint_path.empty());
  // The first hop is the $_FILES-tainted source symbol.
  EXPECT_EQ(v.taint_path.front().kind, Object::Kind::kSymbol);
  EXPECT_NE(v.taint_path.front().description.find("s_files_f"),
            std::string::npos);
  // Every hop reaches files taint by construction.
  for (const TaintHop& hop : v.taint_path) {
    EXPECT_TRUE(r.exec.graph.reaches_files_taint(hop.label));
  }
}

TEST(Evidence, TaintPathHopsAreAnchored) {
  EvidenceRun r(R"(
$name = $_FILES['up']['name'];
$dst = '/var/www/' . $name;
move_uploaded_file($_FILES['up']['tmp_name'], $dst);
)");
  ASSERT_TRUE(r.result.vulnerable);
  for (const TaintHop& hop : r.result.verdicts[0].taint_path) {
    EXPECT_TRUE(hop.loc.valid());
    EXPECT_GT(hop.loc.line, 0u);
  }
}

TEST(Evidence, TaintPathEmptyForUntaintedNode) {
  EvidenceRun r("move_uploaded_file('/tmp/x', '/www/y.php');");
  ASSERT_FALSE(r.result.verdicts.empty());
  const SinkVerdict& v = r.result.verdicts[0];
  EXPECT_FALSE(v.taint_ok);
  // No taint, no path — extract_taint_path guards on reachability.
  EXPECT_TRUE(v.taint_path.empty());
}

// --- guard extraction ------------------------------------------------

TEST(Evidence, GuardsComeOutInProgramOrder) {
  EvidenceRun r(R"(
if ($_FILES['f']['size'] > 10) {
  if ($_FILES['f']['size'] < 1000000) {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
  }
}
)");
  ASSERT_TRUE(r.result.vulnerable);
  const std::vector<PathGuard>& guards = r.result.verdicts[0].guards;
  ASSERT_EQ(guards.size(), 2u);
  EXPECT_NE(guards[0].sexpr.find(">"), std::string::npos);
  EXPECT_NE(guards[1].sexpr.find("<"), std::string::npos);
  EXPECT_LE(guards[0].loc.line, guards[1].loc.line);
}

TEST(Evidence, UnguardedPathHasNoGuards) {
  EvidenceRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
                "'/w/' . $_FILES['f']['name']);");
  ASSERT_TRUE(r.result.vulnerable);
  EXPECT_TRUE(r.result.verdicts[0].guards.empty());
}

// --- witness decoding ------------------------------------------------

TEST(Evidence, DecodeWitnessMultiVariableModel) {
  EvidenceRun r(R"(
if (strlen($_FILES['f']['name']) > 3 && $_FILES['f']['size'] < 4096) {
  move_uploaded_file($_FILES['f']['tmp_name'], '/up/' . $_FILES['f']['name']);
}
)");
  ASSERT_TRUE(r.result.vulnerable);
  const AttackWitness& attack = r.result.verdicts[0].attack;
  ASSERT_TRUE(attack.has_model);
  // The model binds at least the extension symbol; every binding is
  // decoded (raw Z3 rendering stripped of quotes/escapes).
  EXPECT_GE(attack.bindings.size(), 1u);
  bool saw_ext = false;
  for (const WitnessBinding& b : attack.bindings) {
    EXPECT_FALSE(b.symbol.empty());
    if (b.symbol.find("_ext") != std::string::npos) {
      saw_ext = true;
      EXPECT_TRUE(b.decoded == "php" || b.decoded == "php5" ||
                  b.decoded == "phtml");
    }
  }
  EXPECT_TRUE(saw_ext);
  // The reconstructed filename carries the solved extension.
  EXPECT_TRUE(attack.upload_filename.find(".php") != std::string::npos);
  // Destination is fully concrete here: "/up/" . name.
  EXPECT_EQ(attack.destination.rfind("/up/", 0), 0u);
  EXPECT_TRUE(attack.destination_complete);
}

TEST(Evidence, DecodeWitnessWithoutModelStaysEmpty) {
  const HeapGraph graph;
  const AttackWitness attack =
      decode_witness(graph, kNoLabel, {}, VulnModelOptions{});
  EXPECT_FALSE(attack.has_model);
  EXPECT_TRUE(attack.bindings.empty());
  EXPECT_TRUE(attack.upload_filename.empty());
  EXPECT_TRUE(attack.destination.empty());
}

TEST(Evidence, UnknownOutcomeCarriesNoAttack) {
  // An unsat sink keeps attack.has_model == false even with evidence on.
  EvidenceRun r("move_uploaded_file($_FILES['f']['tmp_name'], "
                "'/www/img.png');");
  ASSERT_FALSE(r.result.verdicts.empty());
  const SinkVerdict& v = r.result.verdicts[0];
  EXPECT_NE(v.constraints, smt::SatResult::kSat);
  EXPECT_FALSE(v.attack.has_model);
}

// --- fingerprints ----------------------------------------------------

TEST(Evidence, FingerprintIsStableAndWellFormed) {
  const std::string fp = finding_fingerprint("app", "move_uploaded_file",
                                             "(. \"/w/\" s_files_f_name)");
  EXPECT_EQ(fp.size(), 16u);
  for (const char c : fp) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
  // Deterministic, and sensitive to each component.
  EXPECT_EQ(fp, finding_fingerprint("app", "move_uploaded_file",
                                    "(. \"/w/\" s_files_f_name)"));
  EXPECT_NE(fp, finding_fingerprint("app2", "move_uploaded_file",
                                    "(. \"/w/\" s_files_f_name)"));
  EXPECT_NE(fp, finding_fingerprint("app", "file_put_contents",
                                    "(. \"/w/\" s_files_f_name)"));
  EXPECT_NE(fp, finding_fingerprint("app", "move_uploaded_file", "other"));
}

TEST(Evidence, FingerprintSurvivesLineChurn) {
  // Same sink, same dst term, different line numbers: identical
  // fingerprints (SARIF partialFingerprints dedup across edits).
  const Application a = one_file_app(
      "move_uploaded_file($_FILES['f']['tmp_name'], "
      "'/w/' . $_FILES['f']['name']);");
  const Application b = one_file_app(
      "\n\n\nmove_uploaded_file($_FILES['f']['tmp_name'], "
      "'/w/' . $_FILES['f']['name']);");
  Application b_renamed = b;
  b_renamed.name = "test-app";
  Detector detector;
  const ScanReport ra = detector.scan(a);
  const ScanReport rb = detector.scan(b_renamed);
  ASSERT_TRUE(ra.vulnerable());
  ASSERT_TRUE(rb.vulnerable());
  EXPECT_NE(ra.findings[0].line, rb.findings[0].line);
  EXPECT_EQ(ra.findings[0].fingerprint, rb.findings[0].fingerprint);
}

// --- detector integration -------------------------------------------

TEST(Evidence, ExplainAttachesFullBundle) {
  ScanOptions options;
  options.explain = true;
  Detector detector(options);
  const ScanReport report = detector.scan(one_file_app(R"(
if ($_FILES['f']['size'] < 1048576) {
  move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)"));
  ASSERT_TRUE(report.vulnerable());
  const Finding& f = report.findings[0];
  EXPECT_FALSE(f.fingerprint.empty());
  EXPECT_EQ(f.file, "index.php");
  EXPECT_GT(f.line, 0u);
  ASSERT_FALSE(f.evidence.empty());
  ASSERT_FALSE(f.evidence.taint_path.empty());
  for (const EvidenceHop& hop : f.evidence.taint_path) {
    EXPECT_EQ(hop.file, "index.php");
    EXPECT_GT(hop.line, 0u);
    EXPECT_EQ(hop.location, "index.php:" + std::to_string(hop.line));
  }
  ASSERT_FALSE(f.evidence.guards.empty());
  EXPECT_FALSE(f.evidence.bindings.empty());
  EXPECT_NE(f.evidence.upload_filename.find(".php"), std::string::npos);
  EXPECT_FALSE(f.evidence.destination.empty());
}

TEST(Evidence, WitnessNamesTheGuardsBytes) {
  // PHP does not expand \u{41} in a single-quoted string: the guard
  // compares against six bytes, and the attacker must send all six.
  ScanOptions options;
  options.explain = true;
  Detector detector(options);
  const ScanReport report = detector.scan(one_file_app(R"(
if ($_POST["k"] == '\u{41}') {
  move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)"));
  ASSERT_TRUE(report.vulnerable());
  const Finding& f = report.findings[0];
  EXPECT_NE(f.witness.find("u_array_access_1 = \"\\u{5c}u{41}\""),
            std::string::npos)
      << f.witness;
  bool saw_key = false;
  for (const WitnessBinding& b : f.evidence.bindings) {
    if (b.symbol != "u_array_access_1") continue;
    saw_key = true;
    EXPECT_EQ(b.decoded, "\\u{41}");
  }
  EXPECT_TRUE(saw_key);
}

TEST(Evidence, ExplainOffLeavesEvidenceEmptyAndVerdictIdentical) {
  // The zero-overhead contract: evidence off must produce the same
  // verdicts/findings minus the bundle — the JSON report differs only
  // by the absent "evidence" members.
  const Application app = one_file_app(
      "move_uploaded_file($_FILES['f']['tmp_name'], "
      "'/w/' . $_FILES['f']['name']);");
  Detector plain;
  ScanOptions explain_options;
  explain_options.explain = true;
  Detector explaining(explain_options);
  const ScanReport off = plain.scan(app);
  const ScanReport on = explaining.scan(app);

  ASSERT_TRUE(off.vulnerable());
  ASSERT_TRUE(on.vulnerable());
  ASSERT_EQ(off.findings.size(), on.findings.size());
  for (std::size_t i = 0; i < off.findings.size(); ++i) {
    EXPECT_TRUE(off.findings[i].evidence.empty());
    EXPECT_FALSE(on.findings[i].evidence.empty());
    EXPECT_EQ(off.findings[i].witness, on.findings[i].witness);
    EXPECT_EQ(off.findings[i].fingerprint, on.findings[i].fingerprint);
    EXPECT_EQ(off.findings[i].location, on.findings[i].location);
    EXPECT_EQ(off.findings[i].dst_sexpr, on.findings[i].dst_sexpr);
  }
}

// --- corpus acceptance ----------------------------------------------

TEST(Evidence, EveryVulnerableCorpusFindingCarriesProvenance) {
  ScanOptions options;
  options.explain = true;
  Detector detector(options);
  std::size_t vulnerable_apps = 0;
  for (const corpus::CorpusEntry& entry : corpus::full_corpus()) {
    const ScanReport report = detector.scan(entry.app);
    if (report.verdict != Verdict::kVulnerable) continue;
    ++vulnerable_apps;
    ASSERT_FALSE(report.findings.empty()) << entry.app.name;
    for (const Finding& f : report.findings) {
      // Source→sink chain: at least one hop, each anchored to file:line.
      ASSERT_GE(f.evidence.taint_path.size(), 1u)
          << entry.app.name << " " << f.location;
      for (const EvidenceHop& hop : f.evidence.taint_path) {
        EXPECT_FALSE(hop.file.empty())
            << entry.app.name << " " << f.location;
        EXPECT_GT(hop.line, 0u) << entry.app.name << " " << f.location;
      }
      // Decoded concrete attack filename.
      EXPECT_FALSE(f.evidence.upload_filename.empty())
          << entry.app.name << " " << f.location;
      EXPECT_FALSE(f.fingerprint.empty());
    }
    // The finding appears in SARIF passing the structural validator.
    const std::string sarif = sarif::to_json(to_sarif(report));
    std::string error;
    EXPECT_TRUE(sarif::structurally_valid(sarif, &error))
        << entry.app.name << ": " << error;
  }
  EXPECT_GT(vulnerable_apps, 0u);
}

// --- degraded scans --------------------------------------------------

TEST(Evidence, DeadlineTruncatedScanStillExportsValidSarif) {
  ScanOptions options;
  options.explain = true;
  Detector detector(options);
  // An already-expired deadline truncates the scan immediately; the
  // partial (finding-free) report must still serialize valid SARIF.
  const Application app = one_file_app(
      "move_uploaded_file($_FILES['f']['tmp_name'], "
      "'/w/' . $_FILES['f']['name']);");
  const ScanReport report =
      detector.scan(app, Deadline::after(std::chrono::milliseconds(0)));
  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_EQ(report.verdict, Verdict::kAnalysisIncomplete);
  const std::string sarif = sarif::to_json(to_sarif(report));
  std::string error;
  EXPECT_TRUE(sarif::structurally_valid(sarif, &error)) << error;
}

}  // namespace
}  // namespace uchecker::core
