#include "core/callgraph/callgraph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/callgraph/locality.h"
#include "core/detector/detector.h"
#include "corpus/corpus.h"
#include "phpast/visitor.h"
#include "phpparse/parser.h"
#include "program_generator.h"
#include "support/diag.h"
#include "support/source.h"
#include "support/strutil.h"

namespace uchecker::core {
namespace {

struct Fixture {
  SourceManager sources;
  DiagnosticSink diags;
  std::vector<Arena> arenas;  // declared before files: ASTs live here
  std::vector<phpast::PhpFile> files;
  Program program;
  CallGraph graph;
  LocalityResult locality;

  Fixture(std::initializer_list<std::pair<std::string, std::string>> sources_in) {
    for (const auto& [name, content] : sources_in) add(name, content);
    build();
  }

  explicit Fixture(const Application& app) {
    for (const AppFile& file : app.files) add(file.name, file.content);
    build();
  }

  void add(const std::string& name, const std::string& content) {
    const FileId id = sources.add_file(name, content);
    arenas.emplace_back();
    files.push_back(
        phpparse::parse_php(*sources.file(id), diags, arenas.back()));
  }

  void build() {
    std::vector<const phpast::PhpFile*> ptrs;
    for (const auto& f : files) ptrs.push_back(&f);
    program = build_program(ptrs);
    graph = build_call_graph(program);
    locality = analyze_locality(program, graph, sources);
  }

  [[nodiscard]] NodeId find_node(const std::string& name) const {
    for (NodeId i = 0; i < graph.node_count(); ++i) {
      if (graph.node(i).name == name) return i;
    }
    return kNoNode;
  }

  [[nodiscard]] bool has_edge(const std::string& from,
                              const std::string& to) const {
    const NodeId a = find_node(from);
    const NodeId b = find_node(to);
    if (a == kNoNode || b == kNoNode) return false;
    const auto& children = graph.node(a).children;
    return std::find(children.begin(), children.end(), b) != children.end();
  }
};

TEST(Program, RegistersFunctionsAndMethods) {
  Fixture f({{"a.php", R"php(<?php
function topLevel() {}
class Widget {
    public function render() {}
}
)php"}});
  EXPECT_TRUE(f.program.functions.contains("toplevel"));
  EXPECT_TRUE(f.program.functions.contains("widget::render"));
  EXPECT_TRUE(f.program.functions.contains("render"));
}

TEST(CallGraph, FileCallsFunctionEdge) {
  Fixture f({{"a.php", "<?php function g() {} g();"}});
  EXPECT_TRUE(f.has_edge("a.php", "g"));
}

TEST(CallGraph, FunctionCallsFunctionEdge) {
  Fixture f({{"a.php", "<?php function g() { h(); } function h() {}"}});
  EXPECT_TRUE(f.has_edge("g", "h"));
  EXPECT_FALSE(f.has_edge("a.php", "h"));
}

TEST(CallGraph, FilesAccessEdge) {
  Fixture f({{"a.php", "<?php $x = $_FILES['f'];"}});
  EXPECT_TRUE(f.has_edge("a.php", "$_FILES"));
}

TEST(CallGraph, SinkEdges) {
  Fixture f({{"a.php",
              "<?php move_uploaded_file($a, $b); file_put_contents($c, $d);"}});
  EXPECT_TRUE(f.has_edge("a.php", "move_uploaded_file()"));
  EXPECT_TRUE(f.has_edge("a.php", "file_put_contents()"));
}

TEST(CallGraph, IncludeEdgeByBasename) {
  Fixture f({{"main.php", "<?php require_once 'lib/helper.php';"},
             {"lib/helper.php", "<?php function help() {}"}});
  EXPECT_TRUE(f.has_edge("main.php", "lib/helper.php"));
}

TEST(CallGraph, IncludeWithDirnamePrefix) {
  Fixture f({{"main.php", "<?php include dirname(__FILE__) . '/inc/x.php';"},
             {"inc/x.php", "<?php function xf() {}"}});
  EXPECT_TRUE(f.has_edge("main.php", "inc/x.php"));
}

TEST(CallGraph, IncludeWithEmptySuffixLinksNothing) {
  // `$dir . '/'` strips to an empty suffix, which names no file.
  Fixture f({{"main.php", R"php(<?php
$f = $_FILES['x'];
include $dir . '/';
)php"},
             {"other.php", "<?php move_uploaded_file($a, $b);"}});
  EXPECT_EQ(f.graph.node(f.find_node("main.php")).children.size(), 1u);
  EXPECT_FALSE(f.has_edge("main.php", "other.php"));
  EXPECT_TRUE(f.locality.roots.empty());
}

TEST(CallGraph, IncludeSkipsTheIncludingFileAndIgnoresLoadOrder) {
  const char* main = "<?php include 'upload.php';";
  Fixture ab({{"upload.php", main}, {"a/upload.php", "<?php"},
              {"b/upload.php", "<?php"}});
  Fixture ba({{"upload.php", main}, {"b/upload.php", "<?php"},
              {"a/upload.php", "<?php"}});
  for (const Fixture* f : {&ab, &ba}) {
    EXPECT_TRUE(f->has_edge("upload.php", "a/upload.php"));
    EXPECT_FALSE(f->has_edge("upload.php", "b/upload.php"));
    EXPECT_FALSE(f->has_edge("upload.php", "upload.php"));
  }
}

TEST(CallGraph, MethodBodyIsItsDeclarationsNode) {
  Fixture f({{"a.php", R"php(<?php
class Up {
    static function save($f) {
        move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
    }
}
Up::save($_FILES['x']);
)php"}});
  EXPECT_TRUE(f.has_edge("a.php", "up::save"));
  EXPECT_TRUE(f.has_edge("up::save", "move_uploaded_file()"));
  // The bare-name registry entry is the same declaration, not a node.
  EXPECT_EQ(f.find_node("save"), kNoNode);
  ASSERT_EQ(f.locality.roots.size(), 1u);
  EXPECT_NE(f.locality.roots[0].file, nullptr);
}

TEST(CallGraph, CallbackEdgeFromStringLiteral) {
  Fixture f({{"a.php", R"php(<?php
add_action('wp_ajax_upload', 'my_handler');
function my_handler() {}
)php"}});
  EXPECT_TRUE(f.has_edge("a.php", "my_handler"));
}

TEST(CallGraph, RecursionDoesNotCreateCycle) {
  Fixture f({{"a.php", R"php(<?php
function rec($n) { return rec($n - 1); }
function a() { b(); }
function b() { a(); }
)php"}});
  const NodeId rec = f.find_node("rec");
  ASSERT_NE(rec, kNoNode);
  EXPECT_TRUE(f.graph.node(rec).children.empty());
  // Mutual recursion keeps only the first direction.
  EXPECT_TRUE(f.has_edge("a", "b"));
  EXPECT_FALSE(f.has_edge("b", "a"));
}

TEST(CallGraph, ArgumentFilesAccessGivesCalleeEdge) {
  // Paper §III-A: "(or its parameter input if a is a function)".
  Fixture f({{"a.php", R"php(<?php
handle($_FILES['pic']);
function handle($file) { move_uploaded_file($file['tmp_name'], '/x'); }
)php"}});
  EXPECT_TRUE(f.has_edge("handle", "$_FILES"));
}

TEST(CallGraph, ReachesIsTransitive) {
  Fixture f({{"a.php", R"php(<?php
function f1() { f2(); }
function f2() { f3(); }
function f3() { move_uploaded_file($a, $b); }
f1();
)php"}});
  EXPECT_TRUE(f.graph.reaches(f.find_node("a.php"),
                              f.find_node("move_uploaded_file()")));
  EXPECT_TRUE(f.graph.reaches_kind(f.find_node("f1"),
                                   CallGraphNode::Kind::kSink));
  EXPECT_FALSE(f.graph.reaches_kind(f.find_node("f3"),
                                    CallGraphNode::Kind::kFilesAccess));
}

TEST(CallGraph, DotRendering) {
  Fixture f({{"a.php", "<?php $x = $_FILES['f'];"}});
  const std::string dot = f.graph.to_dot();
  EXPECT_NE(dot.find("digraph callgraph"), std::string::npos);
  EXPECT_NE(dot.find("$_FILES"), std::string::npos);
}

// --- Locality analysis --------------------------------------------------------

TEST(Locality, NoRootWithoutBothSpecialNodes) {
  // $_FILES but no sink.
  Fixture only_files({{"a.php", "<?php $x = $_FILES['f']['name']; echo $x;"}});
  EXPECT_TRUE(only_files.locality.roots.empty());
  // Sink but no $_FILES.
  Fixture only_sink({{"b.php", "<?php move_uploaded_file('/tmp/a', '/www/b');"}});
  EXPECT_TRUE(only_sink.locality.roots.empty());
}

TEST(Locality, FileRootWhenBothAtTopLevel) {
  Fixture f({{"up.php",
              "<?php move_uploaded_file($_FILES['f']['tmp_name'], '/x');"}});
  ASSERT_EQ(f.locality.roots.size(), 1u);
  EXPECT_NE(f.locality.roots[0].file, nullptr);
  EXPECT_EQ(f.locality.roots[0].file->name, "up.php");
}

TEST(Locality, FunctionRootIsLowerThanFile) {
  Fixture f({{"plugin.php", R"php(<?php
add_action('wp_ajax_up', 'do_upload');
function do_upload() {
    move_uploaded_file($_FILES['f']['tmp_name'], '/www/' . $_FILES['f']['name']);
}
)php"}});
  ASSERT_EQ(f.locality.roots.size(), 1u);
  ASSERT_NE(f.locality.roots[0].function, nullptr);
  EXPECT_EQ(f.locality.roots[0].function->name, "do_upload");
}

TEST(Locality, PaperListing1LowestCommonAncestor) {
  // Listing 1 / Fig. 3. Note one deliberate deviation from the paper's
  // figure: handle_uploader's own body reads $_FILES (Listing 1 line 8),
  // so the extended call graph gives it a $_FILES edge and it — not
  // example1.php — is the lowest common ancestor. The paper's Fig. 3
  // omits that edge; with it, the smaller root is strictly better.
  Fixture f({{"example1.php", R"php(<?php
function getFileName($file){
    return $_FILES[$file]['name'];
}
function handle_uploader($file, $savePath){
    $path_array = wp_upload_dir();
    $pathAndName = $path_array['path'] . "/" . $savePath;
    if (!move_uploaded_file($_FILES[$file]['tmp_name'], $pathAndName)) {
        return false;
    }
    return true;
}
if (!handle_uploader("upload_file", getFileName("upload_file"))) {
    echo "File Uploaded failure!";
}
)php"}});
  // The Fig. 3 edges that the paper draws are all present:
  EXPECT_TRUE(f.has_edge("example1.php", "handle_uploader"));
  EXPECT_TRUE(f.has_edge("example1.php", "getfilename"));
  EXPECT_TRUE(f.has_edge("getfilename", "$_FILES"));
  EXPECT_TRUE(f.has_edge("handle_uploader", "move_uploaded_file()"));
  ASSERT_EQ(f.locality.roots.size(), 1u);
  ASSERT_NE(f.locality.roots[0].function, nullptr);
  EXPECT_EQ(f.locality.roots[0].function->name, "handle_uploader");
}

TEST(Locality, AnalyzedPercentIsFractionOfTotal) {
  Fixture f({{"up.php",
              "<?php move_uploaded_file($_FILES['f']['tmp_name'], '/x');"},
             {"big.php",
              "<?php\n$a=1;\n$b=2;\n$c=3;\n$d=4;\n$e=5;\n$f=6;\n$g=7;\n"}});
  ASSERT_EQ(f.locality.roots.size(), 1u);
  EXPECT_GT(f.locality.analyzed_percent(), 0.0);
  EXPECT_LT(f.locality.analyzed_percent(), 50.0);
}

TEST(Locality, BindingCallPrefersFilesArgument) {
  Fixture f({{"a.php", R"php(<?php
save(null);
save($_FILES['pic']);
function save($file) { move_uploaded_file($file['tmp_name'], '/x'); }
)php"}});
  ASSERT_EQ(f.locality.roots.size(), 1u);
  ASSERT_NE(f.locality.roots[0].binding_call, nullptr);
  // The chosen call site is the one passing $_FILES.
  EXPECT_EQ(f.locality.roots[0].binding_call->args.size(), 1u);
  EXPECT_EQ(f.locality.roots[0].binding_call->args[0]->kind(),
            phpast::NodeKind::kArrayAccess);
}

TEST(Locality, MultipleIndependentHandlersGiveMultipleRoots) {
  Fixture f({{"a.php", R"php(<?php
add_action('a', 'upload_a');
add_action('b', 'upload_b');
function upload_a() {
    move_uploaded_file($_FILES['a']['tmp_name'], '/x');
}
function upload_b() {
    move_uploaded_file($_FILES['b']['tmp_name'], '/y');
}
)php"}});
  EXPECT_EQ(f.locality.roots.size(), 2u);
}


TEST(CallGraph, ArrayCallbackEdgeToMethod) {
  Fixture f({{"a.php", R"php(<?php
class Uploader {
    public function __construct() {
        add_action('wp_ajax_up', array($this, 'handle'));
    }
    public function handle() {
        move_uploaded_file($_FILES['f']['tmp_name'], '/x');
    }
}
$u = new Uploader();
)php"}});
  EXPECT_TRUE(f.has_edge("uploader::__construct", "uploader::handle"));
}

TEST(CallGraph, ArrayCallbackWithClassNameString) {
  Fixture f({{"a.php", R"php(<?php
class Hooks {
    public static function boot() {}
}
add_action('init', array('Hooks', 'boot'));
)php"}});
  EXPECT_TRUE(f.has_edge("a.php", "hooks::boot"));
}

TEST(CallGraph, AdminMenuEdgeIsGated) {
  Fixture f({{"a.php", R"php(<?php
add_action('admin_menu', 'admin_page');
add_action('wp_ajax_x', 'public_handler');
function admin_page() { helper(); }
function helper() {}
function public_handler() {}
)php"}});
  const auto admin_only = f.graph.admin_only_nodes();
  EXPECT_TRUE(admin_only[f.find_node("admin_page")]);
  EXPECT_TRUE(admin_only[f.find_node("helper")]);  // transitively gated
  EXPECT_FALSE(admin_only[f.find_node("public_handler")]);
  EXPECT_FALSE(admin_only[f.find_node("a.php")]);
}

TEST(CallGraph, NonGatedRegistrationWidensGatedEdge) {
  // The same callback registered both behind admin_menu and on a public
  // hook is reachable without privileges.
  Fixture f({{"a.php", R"php(<?php
add_action('admin_menu', 'shared_handler');
add_action('wp_ajax_nopriv_x', 'shared_handler');
function shared_handler() {}
)php"}});
  const auto admin_only = f.graph.admin_only_nodes();
  EXPECT_FALSE(admin_only[f.find_node("shared_handler")]);
}

TEST(Locality, AdminGatingSkipsGatedRoot) {
  const char* src = R"php(<?php
add_action('admin_menu', 'menu');
function menu() { store(); }
function store() {
    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
}
)php";
  Fixture plain({{"a.php", src}});
  ASSERT_EQ(plain.locality.roots.size(), 1u);

  // Re-run locality with the SVI extension enabled.
  LocalityOptions options;
  options.model_admin_gating = true;
  const LocalityResult gated =
      analyze_locality(plain.program, plain.graph, plain.sources, options);
  EXPECT_TRUE(gated.roots.empty());
}

// The locality search the single reach pass replaced, kept as the
// oracle: two CallGraph::reaches_kind searches per file and function
// node, then the minimal-candidate step and the root records, with LoC
// counted by the line rule written out in full.
std::vector<NodeId> candidates_by_search(const CallGraph& graph,
                                         bool gating) {
  const std::vector<bool> admin_only =
      gating ? graph.admin_only_nodes()
             : std::vector<bool>(graph.node_count(), false);
  std::vector<NodeId> out;
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const CallGraphNode::Kind kind = graph.node(id).kind;
    if ((kind != CallGraphNode::Kind::kFile &&
         kind != CallGraphNode::Kind::kFunction) ||
        admin_only[id]) {
      continue;
    }
    if (graph.reaches_kind(id, CallGraphNode::Kind::kFilesAccess, !gating) &&
        graph.reaches_kind(id, CallGraphNode::Kind::kSink, !gating)) {
      out.push_back(id);
    }
  }
  return out;
}

std::uint64_t loc_between(const SourceFile& file, std::uint32_t first,
                          std::uint32_t last) {
  std::uint64_t count = 0;
  for (std::uint32_t i = first; i <= last && i <= file.line_count(); ++i) {
    const std::string_view text = strutil::trim(file.line(i));
    if (text.empty() || text.starts_with("//") || text.starts_with("#") ||
        text.starts_with("*") || text.starts_with("/*")) {
      continue;
    }
    ++count;
  }
  return count;
}

std::vector<AnalysisRoot> roots_by_search(const Fixture& f, bool gating) {
  const std::vector<NodeId> candidates = candidates_by_search(f.graph, gating);
  std::vector<AnalysisRoot> roots;
  for (NodeId c : candidates) {
    const bool has_lower = std::any_of(
        candidates.begin(), candidates.end(),
        [&](NodeId other) { return other != c && f.graph.reaches(c, other); });
    if (has_lower) continue;
    const CallGraphNode& node = f.graph.node(c);
    AnalysisRoot root;
    root.node = c;
    if (node.kind == CallGraphNode::Kind::kFile) {
      const auto it = std::find_if(
          f.program.files.begin(), f.program.files.end(),
          [&](const phpast::PhpFile* file) { return file->name == node.name; });
      if (it == f.program.files.end()) continue;
      root.file = *it;
      const SourceFile* sf = f.sources.file_by_name(node.name);
      root.body_loc = loc_between(*sf, 1, sf->line_count());
    } else {
      const Program::FunctionInfo* fn = f.program.function(node.name);
      if (fn == nullptr) continue;
      root.function = fn->decl;
      root.binding_call = node.binding_call;
      const std::uint32_t first = fn->decl->loc().line;
      std::uint32_t last = first;
      for (const auto& stmt : fn->decl->body) {
        last = std::max(last, phpast::max_line(*stmt));
      }
      root.body_loc =
          first == 0 ? 0 : loc_between(*f.sources.file(fn->file), first, last);
    }
    roots.push_back(root);
  }
  return roots;
}

TEST(Locality, ReachBitsMatchPerNodeSearch) {
  std::vector<Application> apps;
  for (const corpus::CorpusEntry& e : corpus::full_corpus()) {
    apps.push_back(e.app);
  }
  for (const corpus::CorpusEntry& e : corpus::helper_sink_suite()) {
    apps.push_back(e.app);
  }
  for (unsigned seed = 1; seed <= 40; ++seed) {
    Application app;
    app.name = "fuzz-" + std::to_string(seed);
    app.files.push_back(
        {"fuzz.php", testing_fuzz::ProgramGenerator(seed).generate()});
    apps.push_back(std::move(app));
  }
  std::size_t roots = 0;
  std::size_t gating_dropped = 0;
  for (const Application& app : apps) {
    const Fixture f(app);
    std::size_t plain_candidates = 0;
    for (const bool gating : {false, true}) {
      SCOPED_TRACE(app.name + (gating ? " (admin gating)" : ""));
      LocalityOptions options;
      options.model_admin_gating = gating;
      const std::vector<NodeId> candidates = upload_candidates(f.graph, options);
      EXPECT_EQ(candidates, candidates_by_search(f.graph, gating));
      if (!gating) plain_candidates = candidates.size();
      if (gating && candidates.size() < plain_candidates) ++gating_dropped;

      const LocalityResult got =
          analyze_locality(f.program, f.graph, f.sources, options);
      const std::vector<AnalysisRoot> want = roots_by_search(f, gating);
      ASSERT_EQ(got.roots.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.roots[i].node, want[i].node);
        EXPECT_EQ(got.roots[i].file, want[i].file);
        EXPECT_EQ(got.roots[i].function, want[i].function);
        EXPECT_EQ(got.roots[i].binding_call, want[i].binding_call);
        EXPECT_EQ(got.roots[i].body_loc, want[i].body_loc);
      }
      roots += want.size();
    }
  }
  EXPECT_GT(roots, apps.size());
  // The admin-gated Table III apps lose candidates: both settings ran.
  EXPECT_GT(gating_dropped, 0u);
}

}  // namespace
}  // namespace uchecker::core
