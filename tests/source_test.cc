#include "support/source.h"

#include <gtest/gtest.h>

#include "support/diag.h"

namespace uchecker {
namespace {

TEST(SourceFile, LineCountAndAccess) {
  SourceManager sm;
  const FileId id = sm.add_file("t.php", "line1\nline2\nline3");
  const SourceFile* f = sm.file(id);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line_count(), 3u);
  EXPECT_EQ(f->line(1), "line1");
  EXPECT_EQ(f->line(3), "line3");
  EXPECT_EQ(f->line(0), "");
  EXPECT_EQ(f->line(4), "");
}

TEST(SourceFile, TrailingNewline) {
  SourceManager sm;
  const SourceFile* f = sm.file(sm.add_file("t.php", "a\nb\n"));
  EXPECT_EQ(f->line_count(), 2u);
  EXPECT_EQ(f->line(2), "b");
}

TEST(SourceFile, CrLfLines) {
  SourceManager sm;
  const SourceFile* f = sm.file(sm.add_file("t.php", "a\r\nb\r\n"));
  EXPECT_EQ(f->line(1), "a");
  EXPECT_EQ(f->line(2), "b");
}

TEST(SourceFile, LocForOffset) {
  SourceManager sm;
  const SourceFile* f = sm.file(sm.add_file("t.php", "abc\ndef\n"));
  const SourceLoc start = f->loc_for_offset(0);
  EXPECT_EQ(start.line, 1u);
  EXPECT_EQ(start.column, 1u);
  const SourceLoc mid = f->loc_for_offset(5);  // 'e'
  EXPECT_EQ(mid.line, 2u);
  EXPECT_EQ(mid.column, 2u);
  const SourceLoc past = f->loc_for_offset(100);
  EXPECT_EQ(past.line, 3u);  // clamped to end
}

TEST(SourceFile, LocCountSkipsBlanksAndComments) {
  SourceManager sm;
  const SourceFile* f = sm.file(sm.add_file("t.php",
                                            "<?php\n"
                                            "\n"
                                            "// comment\n"
                                            "# comment\n"
                                            "/* block */\n"
                                            " * continuation\n"
                                            "$x = 1;\n"));
  EXPECT_EQ(f->loc_count(), 2u);  // "<?php" and "$x = 1;"
}

TEST(SourceFile, LocCountMatchesLineRule) {
  EXPECT_TRUE(is_code_line("$x = 1;"));
  EXPECT_TRUE(is_code_line("  $x = 1; // trailing comment\r"));
  EXPECT_FALSE(is_code_line(""));
  EXPECT_FALSE(is_code_line(" \t\r"));
  EXPECT_FALSE(is_code_line("  // comment"));
  EXPECT_FALSE(is_code_line("# comment"));
  EXPECT_FALSE(is_code_line(" * doc line"));
  EXPECT_FALSE(is_code_line("/* block"));

  SourceManager sm;
  struct Case {
    const char* name;
    const char* content;
    std::uint32_t loc;
  };
  const Case cases[] = {
      {"empty.php", "", 0},
      {"blank.php", "\n\n  \n", 0},
      {"crlf.php", "<?php\r\n\r\n// c\r\n$a = 1;\r\n", 2},
      {"no_final_newline.php", "<?php\n$a = 1;\n$b = 2;", 3},
      {"comments.php",
       "<?php\n# hash\n/* open\n * middle\n */\n// slashes\n$c = 3;\n", 2},
      {"only_comment_no_newline.php", "// just a comment", 0},
  };
  std::uint64_t sum = 0;
  for (const Case& c : cases) {
    const SourceFile* f = sm.file(sm.add_file(c.name, c.content));
    std::uint32_t by_rule = 0;
    for (std::uint32_t i = 1; i <= f->line_count(); ++i) {
      if (is_code_line(f->line(i))) ++by_rule;
    }
    EXPECT_EQ(f->loc_count(), c.loc) << c.name;
    EXPECT_EQ(f->loc_count(), by_rule) << c.name;
    sum += f->loc_count();
  }
  EXPECT_EQ(sm.total_loc(), sum);
}

TEST(SourceManager, FileLookup) {
  SourceManager sm;
  const FileId a = sm.add_file("a.php", "x");
  const FileId b = sm.add_file("b.php", "y");
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(sm.file_by_name("b.php")->id(), b);
  EXPECT_EQ(sm.file_by_name("missing.php"), nullptr);
  EXPECT_EQ(sm.file(FileId{}), nullptr);
  EXPECT_EQ(sm.file(FileId{99}), nullptr);
}

TEST(SourceManager, Describe) {
  SourceManager sm;
  const FileId id = sm.add_file("a.php", "x\ny\n");
  EXPECT_EQ(sm.describe(SourceLoc{id, 2, 1}), "a.php:2:1");
  EXPECT_EQ(sm.describe(SourceLoc{}), "<unknown>");
}

TEST(SourceManager, TotalLoc) {
  SourceManager sm;
  sm.add_file("a.php", "$a = 1;\n$b = 2;\n");
  sm.add_file("b.php", "$c = 3;\n");
  EXPECT_EQ(sm.total_loc(), 3u);
}

TEST(DiagnosticSink, CountsErrors) {
  DiagnosticSink sink;
  EXPECT_FALSE(sink.has_errors());
  sink.warning({}, "w");
  EXPECT_FALSE(sink.has_errors());
  sink.error({}, "e1");
  sink.error({}, "e2");
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 2u);
  EXPECT_EQ(sink.diagnostics().size(), 3u);
}

TEST(DiagnosticSink, Render) {
  SourceManager sm;
  const FileId id = sm.add_file("a.php", "x\n");
  DiagnosticSink sink;
  sink.error(SourceLoc{id, 1, 2}, "bad token");
  EXPECT_EQ(sink.render(sm), "a.php:1:2: error: bad token\n");
}

}  // namespace
}  // namespace uchecker
