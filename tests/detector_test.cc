// End-to-end detector tests over realistic upload idioms — the
// full pipeline of paper Fig. 2 on single applications.
#include "core/detector/detector.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/detector/app_loader.h"
#include "core/detector/report_io.h"

namespace uchecker::core {
namespace {

ScanReport scan(const std::string& handler_php, ScanOptions options = {}) {
  Application app;
  app.name = "test-app";
  app.files.push_back(AppFile{"handler.php", "<?php\n" + handler_php});
  return Detector(options).scan(app);
}

bool vulnerable(const std::string& php, ScanOptions options = {}) {
  return scan(php, options).verdict == Verdict::kVulnerable;
}

// --- vulnerable idioms ----------------------------------------------------------

TEST(Detector, DirectNameIntoDestination) {
  EXPECT_TRUE(vulnerable(
      "move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
      "$_FILES['f']['name']);"));
}

TEST(Detector, NameThroughVariables) {
  EXPECT_TRUE(vulnerable(R"(
$file = $_FILES['upload'];
$name = $file['name'];
$dir = wp_upload_dir();
$dest = $dir['path'] . '/' . $name;
move_uploaded_file($file['tmp_name'], $dest);
)"));
}

TEST(Detector, NameThroughBasename) {
  EXPECT_TRUE(vulnerable(R"(
$dest = '/u/' . basename($_FILES['f']['name']);
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, NameThroughUserFunction) {
  EXPECT_TRUE(vulnerable(R"(
function build_path($n) { return '/u/' . $n; }
move_uploaded_file($_FILES['f']['tmp_name'], build_path($_FILES['f']['name']));
)"));
}

TEST(Detector, TypeCheckAloneInsufficient) {
  // MIME type is client-controlled and unrelated to the extension.
  EXPECT_TRUE(vulnerable(R"(
if ($_FILES['f']['type'] == 'image/jpeg') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)"));
}

TEST(Detector, CaseCheckViaStrtolowerStillVulnerableWithoutWhitelist) {
  EXPECT_TRUE(vulnerable(R"(
$name = strtolower($_FILES['f']['name']);
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $name);
)"));
}

TEST(Detector, InterpolatedStringDestination) {
  EXPECT_TRUE(vulnerable(R"(
$n = $_FILES['f']['name'];
$dest = "/uploads/$n";
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, SprintfDestination) {
  EXPECT_TRUE(vulnerable(R"(
$dest = sprintf('%s/%s', '/uploads', $_FILES['f']['name']);
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, ExplodeEndWhitelistBypassedByAppendedPhp) {
  EXPECT_TRUE(vulnerable(R"(
$parts = explode('.', $_FILES['f']['name']);
$ext = end($parts);
if ($ext == 'zip') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/x_' . $_FILES['f']['name'] . '.php');
}
)"));
}

// --- safe idioms ------------------------------------------------------------------

TEST(Detector, WhitelistInArray) {
  EXPECT_FALSE(vulnerable(R"(
$ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
if (in_array($ext, array('jpg', 'png'))) {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)"));
}

TEST(Detector, WhitelistEqualityChain) {
  EXPECT_FALSE(vulnerable(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext == 'jpg' || $ext == 'png' || $ext == 'gif') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)"));
}

TEST(Detector, WhitelistViaSwitch) {
  EXPECT_FALSE(vulnerable(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
switch ($ext) {
    case 'jpg':
    case 'png':
        move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
        break;
}
)"));
}

TEST(Detector, GuardWithWpDie) {
  EXPECT_FALSE(vulnerable(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if (!in_array($ext, array('pdf', 'txt'))) {
    wp_die('rejected');
}
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)"));
}

TEST(Detector, GuardWithExit) {
  EXPECT_FALSE(vulnerable(R"(
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext != 'csv') {
    exit;
}
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)"));
}

TEST(Detector, GuardWithReturnInFunction) {
  EXPECT_FALSE(vulnerable(R"(
function handle() {
    $ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
    if ($ext !== 'txt') return;
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
handle();
)"));
}

TEST(Detector, DerivedDestinationName) {
  EXPECT_FALSE(vulnerable(R"(
$dest = '/u/' . md5($_FILES['f']['name']) . '.jpg';
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, WhitelistedExtReattached) {
  EXPECT_FALSE(vulnerable(R"(
$ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
if (in_array($ext, array('png', 'gif'))) {
    $dest = '/u/' . uniqid() . '.' . $ext;
    move_uploaded_file($_FILES['f']['tmp_name'], $dest);
}
)"));
}

TEST(Detector, SubstrSuffixCheck) {
  EXPECT_FALSE(vulnerable(R"(
$name = strtolower($_FILES['f']['name']);
if (substr($name, -4) == '.png') {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $name);
}
)"));
}

TEST(Detector, ParameterComparedAsIntAndStringStaysDecidable) {
  // `$n` is unknown-typed: compared as an Int, then as a String. The
  // query declares it once and Z3 accepts it.
  EXPECT_TRUE(vulnerable(R"(
function handle($n) {
  if ($n > 3) {
    if ($n == "5") {
      move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
    }
  }
}
)"));
}

TEST(Detector, NoFilesAccessMeansNoRoot) {
  const ScanReport report = scan("move_uploaded_file('/a', '/b');");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.roots, 0u);
}

TEST(Detector, NoSinkMeansNoRoot) {
  const ScanReport report = scan("$x = $_FILES['f']['name']; echo $x;");
  EXPECT_EQ(report.verdict, Verdict::kNotVulnerable);
  EXPECT_EQ(report.roots, 0u);
}


// --- class-based plugins (WordPress OO idiom) -----------------------------------

TEST(Detector, MethodHandlerViaArrayCallback) {
  EXPECT_TRUE(vulnerable(R"(
class My_Uploader {
    public function __construct() {
        add_action('wp_ajax_up', array($this, 'handle'));
    }
    public function handle() {
        $updir = wp_upload_dir();
        $dest = $updir['basedir'] . '/' . $_FILES['f']['name'];
        move_uploaded_file($_FILES['f']['tmp_name'], $dest);
    }
}
$uploader = new My_Uploader();
)"));
}

TEST(Detector, MethodHandlerWithValidationIsSafe) {
  EXPECT_FALSE(vulnerable(R"(
class Safe_Uploader {
    public function handle() {
        $ext = strtolower(pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION));
        if (!in_array($ext, array('png', 'jpg'))) {
            wp_die('rejected');
        }
        move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
    }
}
add_action('wp_ajax_up', array('Safe_Uploader', 'handle'));
)"));
}

TEST(Detector, DynamicFieldNameStillModeled) {
  // $_FILES[$type] with a symbolic index uses the shared "any" entry.
  EXPECT_TRUE(vulnerable(R"(
$type = $_POST['which'];
move_uploaded_file($_FILES[$type]['tmp_name'], '/u/' . $_FILES[$type]['name']);
)"));
}

TEST(Detector, ConcatViaCompoundAssignment) {
  EXPECT_TRUE(vulnerable(R"(
$dest = '/uploads/';
$dest .= $_FILES['f']['name'];
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, HeredocDestination) {
  EXPECT_TRUE(vulnerable(R"(
$n = $_FILES['f']['name'];
$dest = <<<EOT
/var/www/uploads/$n
EOT;
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, TernaryDestinationEitherBranchExploitable) {
  EXPECT_TRUE(vulnerable(R"(
$n = $_FILES['f']['name'];
$dest = isset($_POST['alt']) ? '/alt/' . $n : '/main/' . $n;
move_uploaded_file($_FILES['f']['tmp_name'], $dest);
)"));
}

TEST(Detector, ElvisDefaultDirectory) {
  EXPECT_TRUE(vulnerable(R"(
$dir = get_option('updir') ?: '/fallback/';
move_uploaded_file($_FILES['f']['tmp_name'], $dir . $_FILES['f']['name']);
)"));
}

TEST(Detector, StrReplaceSanitizerDoesNotStripDotPhp) {
  // str_replace('..', '', $name) defeats traversal, not extension abuse.
  EXPECT_TRUE(vulnerable(R"(
$name = str_replace('..', '', $_FILES['f']['name']);
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $name);
)"));
}

TEST(Detector, SizeAndErrorChecksOnlyStillVulnerable) {
  EXPECT_TRUE(vulnerable(R"(
$f = $_FILES['doc'];
if ($f['error'] != 0) { wp_die('failed'); }
if ($f['size'] > 10485760) { wp_die('too big'); }
move_uploaded_file($f['tmp_name'], '/u/' . $f['name']);
)"));
}

TEST(Detector, ForeachOverFilesArrayVulnerable) {
  EXPECT_TRUE(vulnerable(R"(
foreach ($_FILES as $field => $file) {
    move_uploaded_file($file['tmp_name'], '/u/' . $file['name']);
}
)"));
}

// --- report contents ----------------------------------------------------------------

TEST(Detector, FindingHasSourceLocationAndLine) {
  const ScanReport report = scan(R"(
$file = $_FILES['doc'];
move_uploaded_file($file['tmp_name'], '/www/' . $file['name']);
)");
  ASSERT_EQ(report.verdict, Verdict::kVulnerable);
  ASSERT_FALSE(report.findings.empty());
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.sink_name, "move_uploaded_file");
  EXPECT_NE(f.location.find("handler.php:4"), std::string::npos);
  EXPECT_NE(f.source_line.find("move_uploaded_file"), std::string::npos);
  EXPECT_FALSE(f.witness.empty());
}

TEST(Detector, ReportStatisticsPopulated) {
  const ScanReport report = scan(R"(
if ($a) { $x = 1; }
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)");
  EXPECT_GT(report.total_loc, 0u);
  EXPECT_GT(report.analyzed_loc, 0u);
  EXPECT_GT(report.paths, 1u);
  EXPECT_GT(report.objects, 0u);
  EXPECT_GT(report.objects_per_path, 0.0);
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_GE(report.solver_calls, 1u);
}

TEST(Detector, BudgetExhaustionYieldsIncomplete) {
  ScanOptions tight;
  tight.budget.max_paths = 4;
  // Each arm adds a directory level the sink reads, so no join merges.
  std::string php = "$sub = '/u/';\n";
  for (int i = 0; i < 8; ++i) {
    php += "if ($c" + std::to_string(i) + ") { $sub .= 'k" +
           std::to_string(i) + "/'; }\n";
  }
  php += "move_uploaded_file($_FILES['f']['tmp_name'], $sub . "
         "$_FILES['f']['name']);\n";
  const ScanReport report = scan(php, tight);
  EXPECT_EQ(report.verdict, Verdict::kAnalysisIncomplete);
  EXPECT_TRUE(report.budget_exhausted);
}

TEST(Detector, MultiFileAppWithIncludes) {
  Application app;
  app.name = "multi";
  app.files.push_back(AppFile{"plugin.php", R"php(<?php
require_once 'inc/upload.php';
add_action('wp_ajax_up', 'do_upload');
)php"});
  app.files.push_back(AppFile{"inc/upload.php", R"php(<?php
function do_upload() {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)php"});
  const ScanReport report = Detector().scan(app);
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
}

// --- call and include resolution (Program::callee, include_target) -----------

TEST(Detector, StaticMethodCallReachesItsOwnBody) {
  const ScanReport report = scan(R"(
class Up {
    static function save($f) {
        move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
    }
}
Up::save($_FILES['x']);
)");
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  EXPECT_EQ(report.roots, 1u);
}

TEST(Detector, SameNamedMethodsOfTwoClassesAreDistinct) {
  // The bare name `save` belongs to Safe::save, declared first; the
  // static call names Up::save, and its body is what runs.
  EXPECT_TRUE(vulnerable(R"(
class Safe {
    static function save($f) {
        move_uploaded_file($f['tmp_name'], '/var/www/uploads/upload.jpg');
    }
}
class Up {
    static function save($f) {
        move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
    }
}
Up::save($_FILES['x']);
)"));
}

TEST(Detector, IncludeTargetDoesNotDependOnFileOrder) {
  // Both a/upload.php and b/upload.php end in the included name; the
  // first in name order, a/upload.php, is the one that runs.
  const AppFile main{"main.php", R"php(<?php
$f = $_FILES['x'];
include 'upload.php';
)php"};
  const AppFile a{"a/upload.php", R"php(<?php
move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
)php"};
  const AppFile b{"b/upload.php", "<?php\necho 'saved';\n"};
  std::vector<ScanReport> reports;
  for (const std::vector<AppFile>& order :
       {std::vector<AppFile>{main, a, b}, std::vector<AppFile>{main, b, a}}) {
    Application app;
    app.name = "include-order";
    app.files = order;
    reports.push_back(Detector().scan(app));
  }
  for (const ScanReport& report : reports) {
    EXPECT_EQ(report.verdict, Verdict::kVulnerable);
    ASSERT_EQ(report.root_costs.size(), 1u);
    EXPECT_EQ(report.root_costs[0].root, reports[0].root_costs[0].root);
  }
  EXPECT_EQ(reports[0].roots, reports[1].roots);
}

TEST(Detector, IncludeNamesWholePathComponents) {
  // 'helper.php' is not myhelper.php: with only myhelper.php (which
  // holds the sink) in the app, the include runs nothing.
  const AppFile main{"main.php", R"php(<?php
$f = $_FILES['x'];
include 'helper.php';
)php"};
  const AppFile sink{"myhelper.php", R"php(<?php
move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
)php"};
  Application app;
  app.name = "include-component";
  app.files = {main, sink};
  EXPECT_EQ(Detector().scan(app).verdict, Verdict::kNotVulnerable);
  // A file whose name ends in the whole component is the one that runs,
  // though myhelper.php comes first in name order
  // (data/resolution/include_component).
  app.files = {main,
               AppFile{"myhelper.php", "<?php\nmove_uploaded_file("
                                       "$f['tmp_name'], '/u/avatar.jpg');\n"},
               AppFile{"up/helper.php", sink.content}};
  const ScanReport report = Detector().scan(app);
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "up/helper.php");
}

TEST(AppLoader, FilesComeBackSortedByRelativePath) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("uchecker_app_loader_" + std::to_string(::getpid()));
  fs::remove_all(root);
  for (const char* name : {"z.php", "b.php", "m/x.inc", "a/b.php", "a/a.module",
                           "notes.txt"}) {
    fs::create_directories((root / name).parent_path());
    std::ofstream(root / name) << "<?php\n";
  }
  std::string error;
  const std::optional<Application> app = load_application(root.string(), error);
  fs::remove_all(root);
  ASSERT_TRUE(app.has_value()) << error;
  std::vector<std::string> names;
  for (const AppFile& file : app->files) names.push_back(file.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a/a.module", "a/b.php", "b.php",
                                             "m/x.inc", "z.php"}));
}

// --- zero-denominator regressions -----------------------------------------
// Stats ratios must stay finite (0.0, not NaN/inf) when an app produces
// zero LoC or zero execution paths; a NaN here would also poison the
// JSON report with a bare "nan" token.

TEST(Detector, ZeroLocAppHasFiniteStats) {
  Application app;
  app.name = "empty";
  app.files.push_back(AppFile{"empty.php", ""});
  app.files.push_back(AppFile{"blank.php", "\n\n\n"});
  const ScanReport report = Detector().scan(app);
  EXPECT_EQ(report.total_loc, 0u);
  EXPECT_EQ(report.paths, 0u);
  EXPECT_DOUBLE_EQ(report.analyzed_percent, 0.0);
  EXPECT_DOUBLE_EQ(report.objects_per_path, 0.0);
  EXPECT_TRUE(std::isfinite(report.analyzed_percent));
  EXPECT_TRUE(std::isfinite(report.objects_per_path));
}

TEST(Detector, ZeroPathsReportSerializesWithoutNan) {
  Application app;
  app.name = "no-roots";
  // No $_FILES access and no sink: locality finds zero roots, so zero
  // paths and zero analyzed LoC flow into the ratio denominators.
  app.files.push_back(AppFile{"lib.php", "<?php\n$x = 1;\necho $x;\n"});
  const ScanReport report = Detector().scan(app);
  EXPECT_EQ(report.paths, 0u);
  EXPECT_DOUBLE_EQ(report.objects_per_path, 0.0);
  const std::string json = to_json(report);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Detector, ParseErrorsSurvivable) {
  Application app;
  app.name = "broken";
  app.files.push_back(AppFile{"bad.php", "<?php $a = ;;;"});
  app.files.push_back(AppFile{"good.php", R"php(<?php
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
)php"});
  const ScanReport report = Detector().scan(app);
  EXPECT_GT(report.parse_errors, 0u);
  EXPECT_EQ(report.verdict, Verdict::kVulnerable);
}

}  // namespace
}  // namespace uchecker::core
