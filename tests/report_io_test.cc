#include "core/detector/report_io.h"

#include <gtest/gtest.h>

#include "support/jsonlite.h"

namespace uchecker::core {
namespace {

ScanReport sample_report() {
  ScanReport r;
  r.app_name = "demo \"quoted\" plugin";
  r.verdict = Verdict::kVulnerable;
  r.total_loc = 1000;
  r.analyzed_loc = 50;
  r.analyzed_percent = 5.0;
  r.paths = 8;
  r.objects = 80;
  r.objects_per_path = 10.0;
  r.memory_mb = 0.5;
  r.seconds = 0.125;
  r.roots = 1;
  r.sink_hits = 2;
  r.solver_calls = 1;
  Finding f;
  f.sink_name = "move_uploaded_file";
  f.location = "upload.php:7:5";
  f.file = "upload.php";
  f.line = 7;
  f.source_line = "move_uploaded_file($tmp, $dst);";
  f.dst_sexpr = "(. \"/u/\" s_name)";
  f.reach_sexpr = "true";
  f.witness = "s_ext = \"php\"";
  f.fingerprint = "0123456789abcdef";
  r.findings.push_back(std::move(f));
  return r;
}

// A sample report whose finding carries the full --explain bundle.
ScanReport evidence_report() {
  ScanReport r = sample_report();
  FindingEvidence& ev = r.findings[0].evidence;
  ev.taint_path.push_back(
      {"symbol", "s_files_f_tmp", "upload.php", 3, "upload.php:3"});
  ev.taint_path.push_back(
      {"op", "concat", "upload.php", 5, "upload.php:5"});
  ev.guards.push_back(
      {"(> s_size 10)", "upload.php", 4, "upload.php:4"});
  ev.bindings.push_back({"s_ext", "\"php\"", "php"});
  ev.upload_filename = "payload.php";
  ev.destination = "/u/payload.php";
  ev.destination_complete = true;
  return r;
}

TEST(ReportJson, ContainsAllFields) {
  const std::string json = to_json(sample_report());
  EXPECT_NE(json.find("\"verdict\": \"vulnerable\""), std::string::npos);
  EXPECT_NE(json.find("\"total_loc\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"paths\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"budget_exhausted\": false"), std::string::npos);
  EXPECT_NE(json.find("\"sink\": \"move_uploaded_file\""), std::string::npos);
  EXPECT_NE(json.find("\"location\": \"upload.php:7:5\""), std::string::npos);
}

TEST(ReportJson, FindingCarriesIdentityFields) {
  const std::string json = to_json(sample_report());
  EXPECT_NE(json.find("\"file\": \"upload.php\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": \"0123456789abcdef\""),
            std::string::npos);
  // Without evidence there is no evidence member at all.
  EXPECT_EQ(json.find("\"evidence\""), std::string::npos);
}

TEST(ReportJson, EvidenceSerializedWhenPresent) {
  const std::string json = to_json(evidence_report());
  EXPECT_NE(json.find("\"evidence\": {\"taint_path\": ["), std::string::npos);
  EXPECT_NE(json.find("\"description\": \"s_files_f_tmp\""),
            std::string::npos);
  EXPECT_NE(json.find("\"location\": \"upload.php:3\""), std::string::npos);
  EXPECT_NE(json.find("\"sexpr\": \"(> s_size 10)\""), std::string::npos);
  EXPECT_NE(json.find("\"symbol\": \"s_ext\""), std::string::npos);
  EXPECT_NE(json.find("\"upload_filename\": \"payload.php\""),
            std::string::npos);
  EXPECT_NE(json.find("\"destination_complete\": true"), std::string::npos);
}

TEST(ReportText, EvidenceRendered) {
  const std::string text = to_text(evidence_report());
  EXPECT_NE(text.find("taint path:"), std::string::npos);
  EXPECT_NE(text.find("symbol   s_files_f_tmp  [upload.php:3]"),
            std::string::npos);
  EXPECT_NE(text.find("guarded by:"), std::string::npos);
  EXPECT_NE(text.find("(> s_size 10)  [upload.php:4]"), std::string::npos);
  EXPECT_NE(text.find("upload \"payload.php\" -> written to "
                      "\"/u/payload.php\""),
            std::string::npos);
}

TEST(ReportJson, EscapesQuotesInStrings) {
  const std::string json = to_json(sample_report());
  EXPECT_NE(json.find("demo \\\"quoted\\\" plugin"), std::string::npos);
  EXPECT_NE(json.find("s_ext = \\\"php\\\""), std::string::npos);
}

TEST(ReportJson, EmptyFindingsIsEmptyArray) {
  ScanReport r;
  r.app_name = "clean";
  r.verdict = Verdict::kNotVulnerable;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"not_vulnerable\""), std::string::npos);
}

TEST(ReportJson, BalancedBracesAndQuotes) {
  const std::string json = to_json(sample_report());
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ReportText, HumanReadable) {
  const std::string text = to_text(sample_report());
  EXPECT_NE(text.find("\nverdict: Vulnerable\n"), std::string::npos);
  EXPECT_NE(text.find("8 paths"), std::string::npos);
  EXPECT_NE(text.find("move_uploaded_file at upload.php:7:5"),
            std::string::npos);
}

TEST(ReportText, WarningsShown) {
  ScanReport r;
  r.app_name = "partial";
  r.verdict = Verdict::kAnalysisIncomplete;
  r.budget_exhausted = true;
  r.parse_errors = 3;
  const std::string text = to_text(r);
  EXPECT_NE(text.find("note: analysis budget exhausted"), std::string::npos);
  EXPECT_NE(text.find("note: 3 parse error(s)"), std::string::npos);
}

// The wording the CLI rows match (scan_directory_solver_budget_ends_scan,
// scan_directory_resolution_fixture) comes from to_text.
TEST(ReportText, PrintsTheCliVerdictAndSolverBudgetNote) {
  ScanReport r;
  r.app_name = "fuzz";
  r.verdict = Verdict::kAnalysisIncomplete;
  r.solver_budget_exhausted = true;
  r.budget_exhausted = true;
  const std::string text = to_text(r);
  EXPECT_NE(text.find("\nverdict: Analysis incomplete\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("note: solver budget exhausted ("), std::string::npos);
  // The solver budget is the reason named; the path-budget note is not
  // repeated.
  EXPECT_EQ(text.find("note: analysis budget exhausted"), std::string::npos);
}

ScanReport linted_report() {
  ScanReport r = sample_report();
  r.parse_errors = 1;
  r.roots = 2;
  r.pruned_roots = 1;
  staticpass::LintFinding lint;
  lint.rule = "UC103";
  lint.severity = staticpass::Severity::kWarning;
  lint.location = "upload.php:4";
  lint.message = "extension compared without strtolower()";
  lint.evidence = "if ($ext == 'jpg')";
  r.lints.push_back(std::move(lint));
  return r;
}

TEST(ReportText, LintsOnlyWhenAsked) {
  EXPECT_EQ(to_text(linted_report()).find("lint: ["), std::string::npos);
  const std::string text = to_text(linted_report(), /*quiet=*/false,
                                   /*lints=*/true);
  EXPECT_NE(text.find("lint: [UC103/warning] upload.php:4: extension "
                      "compared without strtolower()\n      if ($ext == "
                      "'jpg')\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("note: static pass pruned 1 of 2 root(s)"),
            std::string::npos);
}

TEST(ReportText, QuietDropsNotesButKeepsVerdictLintsAndFindings) {
  ScanReport r = linted_report();
  r.errors.push_back(ScanError{"interp", "upload.php", "injected fault", true});
  const std::string text = to_text(r, /*quiet=*/true, /*lints=*/true);
  EXPECT_EQ(text.find("note:"), std::string::npos) << text;
  EXPECT_EQ(text.find("symbolic execution:"), std::string::npos);
  EXPECT_EQ(text.rfind("error: [interp] upload.php: injected fault", 0), 0u)
      << text;
  EXPECT_NE(text.find("lint: [UC103/warning]"), std::string::npos);
  EXPECT_NE(text.find("\nverdict: Vulnerable\n"), std::string::npos);
  EXPECT_NE(text.find("move_uploaded_file at upload.php:7:5"),
            std::string::npos);
}

TEST(VerdictSlug, AllValues) {
  EXPECT_EQ(verdict_slug(Verdict::kVulnerable), "vulnerable");
  EXPECT_EQ(verdict_slug(Verdict::kNotVulnerable), "not_vulnerable");
  EXPECT_EQ(verdict_slug(Verdict::kAnalysisIncomplete),
            "analysis_incomplete");
  EXPECT_EQ(verdict_slug(Verdict::kAnalysisError), "analysis_error");
}

ScanReport degraded_report() {
  ScanReport r;
  r.app_name = "hostile";
  r.verdict = Verdict::kAnalysisError;
  r.deadline_exceeded = true;
  r.solver_retries = 2;
  r.analysis_errors = 1;
  r.errors.push_back(ScanError{"interp", "upload.php", "injected fault", true});
  r.errors.push_back(ScanError{"solve", "handler()", "z3 blew up", false});
  return r;
}

TEST(ReportJson, DegradationFields) {
  const std::string json = to_json(degraded_report());
  EXPECT_NE(json.find("\"verdict\": \"analysis_error\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"solver_retries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"analysis_errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"interp\""), std::string::npos);
  EXPECT_NE(json.find("\"root\": \"upload.php\""), std::string::npos);
  EXPECT_NE(json.find("\"message\": \"injected fault\""), std::string::npos);
  EXPECT_NE(json.find("\"transient\": true"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"solve\""), std::string::npos);
}

TEST(ReportJson, EmptyErrorsIsEmptyArray) {
  const std::string json = to_json(sample_report());
  EXPECT_NE(json.find("\"errors\": []"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\": false"), std::string::npos);
  EXPECT_NE(json.find("\"solver_retries\": 0"), std::string::npos);
}

TEST(ReportJson, DegradedReportStaysBalanced) {
  const std::string json = to_json(degraded_report());
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, DiagnosticsByPhase) {
  ScanReport r = degraded_report();
  r.diagnostics_by_phase = {{"parse", 3}, {"interp", 1}, {"", 2}};
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"diagnostics_by_phase\": {\"\": 2, \"interp\": 1, "
                      "\"parse\": 3}"),
            std::string::npos);
}

TEST(ReportJson, EmptyDiagnosticsByPhaseIsEmptyObject) {
  const std::string json = to_json(sample_report());
  EXPECT_NE(json.find("\"diagnostics_by_phase\": {}"), std::string::npos);
}

TEST(ReportText, DiagnosticsByPhaseShown) {
  ScanReport r = degraded_report();
  r.diagnostics_by_phase = {{"parse", 3}, {"", 1}};
  const std::string text = to_text(r);
  EXPECT_NE(text.find("diagnostics: <unattributed>=1 parse=3"),
            std::string::npos);
}

TEST(ReportText, DegradationShown) {
  const std::string text = to_text(degraded_report());
  EXPECT_NE(text.find("verdict: Analysis error"), std::string::npos);
  EXPECT_NE(text.find("deadline exceeded"), std::string::npos);
  EXPECT_NE(text.find("error: [interp] upload.php: injected fault (transient)"),
            std::string::npos);
  EXPECT_NE(text.find("error: [solve] handler(): z3 blew up"),
            std::string::npos);
  EXPECT_NE(text.find("2 solver retries"), std::string::npos);
}

// --- report_from_json: the deserialization half of the scand verdict
// cache. The contract is exact inversion on to_json output — a cached
// replay must re-serialize byte-identically to the scan that stored it.

TEST(ReportRoundTrip, PlainReportInvertsExactly) {
  const std::string json = to_json(sample_report());
  const std::optional<ScanReport> parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json(*parsed), json);
  EXPECT_EQ(parsed->verdict, Verdict::kVulnerable);
  EXPECT_EQ(parsed->app_name, "demo \"quoted\" plugin");
  ASSERT_EQ(parsed->findings.size(), 1u);
  EXPECT_EQ(parsed->findings[0].fingerprint, "0123456789abcdef");
  EXPECT_EQ(parsed->findings[0].line, 7u);
}

TEST(ReportRoundTrip, EvidenceReportInvertsExactly) {
  const std::string json = to_json(evidence_report());
  const std::optional<ScanReport> parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json(*parsed), json);
  const FindingEvidence& ev = parsed->findings[0].evidence;
  ASSERT_EQ(ev.taint_path.size(), 2u);
  EXPECT_EQ(ev.taint_path[0].description, "s_files_f_tmp");
  ASSERT_EQ(ev.guards.size(), 1u);
  EXPECT_EQ(ev.guards[0].sexpr, "(> s_size 10)");
  ASSERT_EQ(ev.bindings.size(), 1u);
  EXPECT_EQ(ev.bindings[0].decoded, "php");
  EXPECT_EQ(ev.upload_filename, "payload.php");
  EXPECT_TRUE(ev.destination_complete);
}

TEST(ReportRoundTrip, ControlBytesStayValidJson) {
  // A guard such as strpos($name, "\0") puts a NUL into the
  // reachability s-expression and the witness.
  using namespace std::string_literals;
  ScanReport r = evidence_report();
  Finding& f = r.findings[0];
  f.reach_sexpr = "(strpos s_name \"\0\x01\")"s;
  f.witness = "s_name = \"\0\x01\""s;
  f.evidence.bindings[0].decoded = "\0\x01"s;
  const std::string json = to_json(r);
  EXPECT_EQ(json.find('\0'), std::string::npos);
  EXPECT_TRUE(jsonlite::parse(json).has_value());
  const std::optional<ScanReport> parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json(*parsed), json);
  EXPECT_EQ(parsed->findings[0].reach_sexpr, f.reach_sexpr);
  EXPECT_EQ(parsed->findings[0].witness, f.witness);
  EXPECT_EQ(parsed->findings[0].evidence.bindings[0].decoded,
            f.evidence.bindings[0].decoded);
}

TEST(ReportRoundTrip, DegradedReportInvertsExactly) {
  ScanReport r = degraded_report();
  r.diagnostics_by_phase = {{"parse", 3}, {"interp", 1}};
  staticpass::LintFinding lint;
  lint.rule = "UC103";
  lint.severity = staticpass::Severity::kWarning;
  lint.location = "upload.php:4";
  lint.message = "blacklist extension check";
  lint.evidence = "if ($ext !== 'php')";
  r.lints.push_back(std::move(lint));
  ScanError d;
  d.root = "handler()";
  d.message = "engines disagree";
  r.disagreements.push_back(std::move(d));

  const std::string json = to_json(r);
  const std::optional<ScanReport> parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json(*parsed), json);
  ASSERT_EQ(parsed->errors.size(), r.errors.size());
  EXPECT_EQ(parsed->errors[0].transient, r.errors[0].transient);
  ASSERT_EQ(parsed->lints.size(), 1u);
  EXPECT_EQ(parsed->lints[0].severity, staticpass::Severity::kWarning);
  ASSERT_EQ(parsed->disagreements.size(), 1u);
  EXPECT_EQ(parsed->diagnostics_by_phase.at("parse"), 3u);
}

TEST(ReportRoundTrip, RejectsDamagedInput) {
  EXPECT_FALSE(report_from_json("").has_value());
  EXPECT_FALSE(report_from_json("not json at all").has_value());
  EXPECT_FALSE(report_from_json("{}").has_value());
  EXPECT_FALSE(report_from_json("[1, 2, 3]").has_value());
  // Structurally valid JSON with a mangled verdict must not parse.
  std::string json = to_json(sample_report());
  const std::size_t pos = json.find("vulnerable");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 10, "vulnerablX");
  EXPECT_FALSE(report_from_json(json).has_value());
  // Truncation anywhere must not parse.
  const std::string whole = to_json(sample_report());
  EXPECT_FALSE(report_from_json(whole.substr(0, whole.size() / 2)).has_value());
}

// to_json always writes these four stats; a record without one is not a
// report this engine wrote.
TEST(ReportRoundTrip, RejectsAReportMissingAnAlwaysWrittenStat) {
  const std::string whole = to_json(sample_report());
  ASSERT_TRUE(report_from_json(whole).has_value());
  for (const char* field : {"summary_cache_hits", "summary_pruned_roots",
                            "escaped_calls", "accounted_bytes"}) {
    const std::string key = std::string("\"") + field + "\": 0";
    std::string json = whole;
    const std::size_t pos = json.find(key);
    ASSERT_NE(pos, std::string::npos) << field;
    // Rename the key: the JSON stays well formed, the field is gone.
    json.replace(pos + 1, 1, "x");
    ASSERT_TRUE(jsonlite::parse(json).has_value()) << json;
    EXPECT_FALSE(report_from_json(json).has_value()) << field;
  }
}

}  // namespace
}  // namespace uchecker::core
