// Tests for SARIF 2.1.0 export: the golden serialized format (byte
// exact, mirroring telemetry_test's Chrome-trace golden check), the
// jsonlite DOM parser it is validated with, the structural validator's
// positive/negative space, and the ScanReport → SARIF mapping.
#include "support/sarif_export.h"

#include <gtest/gtest.h>

#include "core/detector/detector.h"
#include "core/detector/report_io.h"
#include "support/jsonlite.h"

namespace uchecker {
namespace {

// --- jsonlite DOM ----------------------------------------------------

TEST(JsonliteDom, ParsesScalarsAndContainers) {
  const auto v = jsonlite::parse(
      R"({"a": 1.5, "b": "text", "c": [true, false, null], "d": {"e": -2}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->find("a")->number(), 1.5);
  EXPECT_EQ(v->find("b")->str(), "text");
  const jsonlite::Value* c = v->find("c");
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->size(), 3u);
  EXPECT_TRUE(c->at(0)->boolean());
  EXPECT_FALSE(c->at(1)->boolean());
  EXPECT_TRUE(c->at(2)->is_null());
  EXPECT_DOUBLE_EQ(v->find("d")->find("e")->number(), -2.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonliteDom, DecodesStringEscapes) {
  const auto v = jsonlite::parse(R"(["a\"b", "tab\there", "\u0041", "\u00e9"])");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->at(0)->str(), "a\"b");
  EXPECT_EQ(v->at(1)->str(), "tab\there");
  EXPECT_EQ(v->at(2)->str(), "A");
  EXPECT_EQ(v->at(3)->str(), "\xc3\xa9");  // é as UTF-8
}

TEST(JsonliteDom, DecodesSurrogatePairs) {
  const auto v = jsonlite::parse(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str(), "\xf0\x9f\x98\x80");
  // A lone surrogate is a syntax error.
  EXPECT_FALSE(jsonlite::parse(R"("\ud83d")").has_value());
}

TEST(JsonliteDom, RejectsMalformedText) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "01", "\"\\q\""}) {
    EXPECT_FALSE(jsonlite::parse(bad).has_value()) << bad;
  }
}

// --- golden serialization -------------------------------------------

TEST(SarifExport, GoldenFormat) {
  sarif::Log log;
  log.tool.name = "uchecker";
  log.tool.version = "1.0.0";
  log.rules.push_back({"UC001", "UnrestrictedFileUpload", "Upload check."});
  sarif::Result result;
  result.rule_id = "UC001";
  result.level = "error";
  result.message = "tainted upload reaches move_uploaded_file().";
  result.location.uri = "upload.php";
  result.location.line = 16;
  result.fingerprints.emplace_back("uchecker/v1", "9a33afae0a74fdaf");
  sarif::CodeFlow flow;
  flow.locations.push_back({"upload.php", 5, "symbol: s_files_f_tmp"});
  flow.locations.push_back({"upload.php", 16, "sink: move_uploaded_file()"});
  result.code_flows.push_back(flow);
  log.results.push_back(result);

  const std::string expected =
      "{\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\", "
      "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": {\"name\": "
      "\"uchecker\", \"version\": \"1.0.0\", \"rules\": [{\"id\": \"UC001\", "
      "\"name\": \"UnrestrictedFileUpload\", \"shortDescription\": {\"text\": "
      "\"Upload check.\"}}]}}, \"results\": [{\"ruleId\": \"UC001\", "
      "\"level\": \"error\", \"message\": {\"text\": \"tainted upload "
      "reaches move_uploaded_file().\"}, \"locations\": "
      "[{\"physicalLocation\": {\"artifactLocation\": {\"uri\": "
      "\"upload.php\"}, \"region\": {\"startLine\": 16}}}], \"codeFlows\": "
      "[{\"threadFlows\": [{\"locations\": [{\"location\": "
      "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": "
      "\"upload.php\"}, \"region\": {\"startLine\": 5}}, \"message\": "
      "{\"text\": \"symbol: s_files_f_tmp\"}}}, {\"location\": "
      "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": "
      "\"upload.php\"}, \"region\": {\"startLine\": 16}}, \"message\": "
      "{\"text\": \"sink: move_uploaded_file()\"}}}]}]}], "
      "\"partialFingerprints\": {\"uchecker/v1\": \"9a33afae0a74fdaf\"}}]}]}";
  EXPECT_EQ(sarif::to_json(log), expected);

  std::string error;
  EXPECT_TRUE(sarif::structurally_valid(expected, &error)) << error;
}

// --- structural validator -------------------------------------------

sarif::Log minimal_log() {
  sarif::Log log;
  log.tool.name = "uchecker";
  log.rules.push_back({"UC001", "Rule", "desc"});
  sarif::Result result;
  result.rule_id = "UC001";
  result.message = "m";
  result.location.uri = "a.php";
  result.location.line = 1;
  log.results.push_back(result);
  return log;
}

TEST(SarifValidator, AcceptsEmittedLogs) {
  std::string error;
  EXPECT_TRUE(sarif::structurally_valid(sarif::to_json(minimal_log()), &error))
      << error;
  // Empty results are fine too (clean scan).
  sarif::Log clean = minimal_log();
  clean.results.clear();
  EXPECT_TRUE(sarif::structurally_valid(sarif::to_json(clean), &error))
      << error;
}

TEST(SarifValidator, RejectsStructuralBreaks) {
  std::string error;
  EXPECT_FALSE(sarif::structurally_valid("not json", &error));
  EXPECT_EQ(error, "not valid JSON");
  EXPECT_FALSE(sarif::structurally_valid("{\"version\": \"2.0.0\"}", &error));
  EXPECT_NE(error.find("2.1.0"), std::string::npos);
  EXPECT_FALSE(sarif::structurally_valid(
      "{\"version\": \"2.1.0\", \"runs\": []}", &error));
  EXPECT_NE(error.find("runs"), std::string::npos);

  // An undeclared ruleId must be rejected.
  const std::string undeclared =
      "{\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": {\"name\": "
      "\"t\", \"rules\": []}}, \"results\": [{\"ruleId\": \"UC999\", "
      "\"message\": {\"text\": \"m\"}, \"locations\": "
      "[{\"physicalLocation\": {\"artifactLocation\": {\"uri\": "
      "\"a\"}}}]}]}]}";
  EXPECT_FALSE(sarif::structurally_valid(undeclared, &error));
  EXPECT_NE(error.find("UC999"), std::string::npos);

  // startLine of 0 violates SARIF's 1-based regions.
  const std::string zero_line =
      "{\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": {\"name\": "
      "\"t\", \"rules\": [{\"id\": \"R\"}]}}, \"results\": [{\"ruleId\": "
      "\"R\", \"message\": {\"text\": \"m\"}, \"locations\": "
      "[{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"a\"}, "
      "\"region\": {\"startLine\": 0}}}]}]}]}";
  EXPECT_FALSE(sarif::structurally_valid(zero_line, &error));
  EXPECT_NE(error.find("startLine"), std::string::npos);

  // A bad level string.
  sarif::Log log = minimal_log();
  log.results[0].level = "fatal";
  EXPECT_FALSE(sarif::structurally_valid(sarif::to_json(log), &error));
  EXPECT_NE(error.find("level"), std::string::npos);
}

// --- ScanReport mapping ---------------------------------------------

core::Application one_file_app(const std::string& php) {
  core::Application app;
  app.name = "sarif-app";
  app.files.push_back(core::AppFile{"index.php", "<?php\n" + php});
  return app;
}

TEST(SarifMapping, FindingBecomesUC001WithCodeFlow) {
  core::ScanOptions options;
  options.explain = true;
  core::Detector detector(options);
  const core::ScanReport report = detector.scan(one_file_app(
      "move_uploaded_file($_FILES['f']['tmp_name'], "
      "'/w/' . $_FILES['f']['name']);"));
  ASSERT_TRUE(report.vulnerable());

  const sarif::Log log = core::to_sarif(report);
  std::string error;
  ASSERT_TRUE(sarif::structurally_valid(sarif::to_json(log), &error)) << error;
  ASSERT_FALSE(log.results.empty());
  const sarif::Result& r = log.results[0];
  EXPECT_EQ(r.rule_id, "UC001");
  EXPECT_EQ(r.level, "error");
  EXPECT_EQ(r.location.uri, "index.php");
  EXPECT_GT(r.location.line, 0u);
  ASSERT_EQ(r.fingerprints.size(), 1u);
  EXPECT_EQ(r.fingerprints[0].first, "uchecker/v1");
  EXPECT_EQ(r.fingerprints[0].second, report.findings[0].fingerprint);
  // --explain provenance became a source→sink codeFlow ending at the sink.
  ASSERT_FALSE(r.code_flows.empty());
  ASSERT_GE(r.code_flows[0].locations.size(), 2u);
  EXPECT_NE(r.code_flows[0].locations.back().message.find(
                "move_uploaded_file"),
            std::string::npos);
  // The attack reconstruction is part of the result message.
  EXPECT_NE(r.message.find("payload.php"), std::string::npos);
}

TEST(SarifMapping, LintSeverityMapsToSarifLevel) {
  core::ScanReport report;
  report.app_name = "lints";
  report.lints.push_back({"UC101", core::staticpass::Severity::kError,
                          "a.php:3", "unrestricted upload", "evidence line"});
  report.lints.push_back({"UC103", core::staticpass::Severity::kWarning,
                          "a.php:7", "case-sensitive compare", ""});
  report.lints.push_back({"UC106", core::staticpass::Severity::kInfo,
                          "a.php:9", "raw client filename", ""});
  const sarif::Log log = core::to_sarif(report);
  ASSERT_EQ(log.results.size(), 3u);
  EXPECT_EQ(log.results[0].rule_id, "UC101");
  EXPECT_EQ(log.results[0].level, "error");
  EXPECT_EQ(log.results[0].location.uri, "a.php");
  EXPECT_EQ(log.results[0].location.line, 3u);
  EXPECT_EQ(log.results[1].level, "warning");
  EXPECT_EQ(log.results[2].level, "note");
  std::string error;
  EXPECT_TRUE(sarif::structurally_valid(sarif::to_json(log), &error)) << error;
}

TEST(SarifMapping, LocationSplitterHandlesFindingsAndLints) {
  // Findings render "file:line:col", lints "file:line"; both must land
  // on the right line. Exercised through the lint path (public surface).
  core::ScanReport report;
  report.app_name = "locs";
  report.lints.push_back({"UC101", core::staticpass::Severity::kError,
                          "dir/upload.php:12", "m", ""});
  report.lints.push_back({"UC102", core::staticpass::Severity::kWarning,
                          "no-line-here", "m", ""});
  const sarif::Log log = core::to_sarif(report);
  EXPECT_EQ(log.results[0].location.uri, "dir/upload.php");
  EXPECT_EQ(log.results[0].location.line, 12u);
  // Unparsable location keeps the text as uri, region suppressed.
  EXPECT_EQ(log.results[1].location.uri, "no-line-here");
  EXPECT_EQ(log.results[1].location.line, 0u);
}

}  // namespace
}  // namespace uchecker
