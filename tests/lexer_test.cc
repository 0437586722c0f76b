#include "phplex/lexer.h"

#include <gtest/gtest.h>

#include "support/arena.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::phplex {
namespace {

// Token text views are backed by the lexing arena, so the arena (like
// the SourceManager) must outlive every returned token.
Arena& test_arena() {
  static Arena arena;
  return arena;
}

std::vector<Token> lex(const std::string& src) {
  static SourceManager sm;
  DiagnosticSink diags;
  const FileId id = sm.add_file("test.php", src);
  return lex_file(*sm.file(id), diags, test_arena());
}

std::vector<TokenKind> kinds(const std::string& src) {
  std::vector<TokenKind> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInput) {
  const auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEndOfFile);
}

TEST(Lexer, InlineHtmlOnly) {
  const auto tokens = lex("<html>hello</html>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kInlineHtml);
  EXPECT_EQ(tokens[0].text, "<html>hello</html>");
}

TEST(Lexer, OpenTagEntersPhpMode) {
  const auto tokens = lex("<?php $x;");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[0].text, "x");
}

TEST(Lexer, VariableVariableKeepsItsInnerDollar) {
  // `$$name` names a variable only known at run time; the token text
  // keeps the inner '$' so the AST can tell it from `$name`.
  const auto tokens = lex("<?php $$name = 1;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[0].text, "$name");
  EXPECT_EQ(tokens[1].kind, TokenKind::kAssign);
}

TEST(Lexer, CloseTagEmitsSemicolonAndHtml) {
  const auto k = kinds("<?php $x ?>after");
  // $x ; (from ?>) html eof
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[0], TokenKind::kVariable);
  EXPECT_EQ(k[1], TokenKind::kSemicolon);
  EXPECT_EQ(k[2], TokenKind::kInlineHtml);
}

TEST(Lexer, ShortEchoTag) {
  const auto k = kinds("<?= $x ?>");
  EXPECT_EQ(k[0], TokenKind::kKwEcho);
  EXPECT_EQ(k[1], TokenKind::kVariable);
}

TEST(Lexer, Variables) {
  const auto tokens = lex("<?php $_FILES $foo_bar $x9;");
  EXPECT_EQ(tokens[0].text, "_FILES");
  EXPECT_EQ(tokens[1].text, "foo_bar");
  EXPECT_EQ(tokens[2].text, "x9");
}

TEST(Lexer, KeywordsCaseInsensitive) {
  const auto k = kinds("<?php IF Else FUNCTION return;");
  EXPECT_EQ(k[0], TokenKind::kKwIf);
  EXPECT_EQ(k[1], TokenKind::kKwElse);
  EXPECT_EQ(k[2], TokenKind::kKwFunction);
  EXPECT_EQ(k[3], TokenKind::kKwReturn);
}

TEST(Lexer, IdentifierKeepsOriginalCase) {
  const auto tokens = lex("<?php MyFunc();");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MyFunc");
}

TEST(Lexer, IntLiterals) {
  const auto tokens = lex("<?php 42 0x1F 0;");
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, 31);
  EXPECT_EQ(tokens[2].int_value, 0);
}

TEST(Lexer, FloatLiterals) {
  const auto tokens = lex("<?php 3.14 1e3 2.5e-1;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 3.14);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 0.25);
}

TEST(Lexer, SingleQuotedString) {
  const auto tokens = lex(R"(<?php 'a\'b\\c$x';)");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "a'b\\c$x");  // $x is literal in single quotes
}

TEST(Lexer, DoubleQuotedPlain) {
  const auto tokens = lex(R"(<?php "hello\tworld\n";)");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "hello\tworld\n");
}

TEST(Lexer, DoubleQuotedInterpolation) {
  const auto tokens = lex(R"(<?php "pre $name post";)");
  ASSERT_EQ(tokens[0].kind, TokenKind::kTemplateString);
  ASSERT_EQ(tokens[0].parts.size(), 3u);
  EXPECT_EQ(tokens[0].parts[0].text, "pre ");
  EXPECT_EQ(tokens[0].parts[1].kind, InterpPart::Kind::kVariable);
  EXPECT_EQ(tokens[0].parts[1].text, "name");
  EXPECT_EQ(tokens[0].parts[2].text, " post");
}

TEST(Lexer, InterpolationWithIndex) {
  const auto tokens = lex(R"(<?php "x $arr[key] y";)");
  ASSERT_EQ(tokens[0].kind, TokenKind::kTemplateString);
  const InterpPart& p = tokens[0].parts[1];
  EXPECT_EQ(p.text, "arr");
  EXPECT_TRUE(p.has_index);
  EXPECT_EQ(p.index, "key");
}

TEST(Lexer, InterpolationComplexSyntax) {
  const auto tokens = lex(R"(<?php "{$file['name']}";)");
  ASSERT_EQ(tokens[0].kind, TokenKind::kTemplateString);
  const InterpPart& p = tokens[0].parts[0];
  EXPECT_EQ(p.text, "file");
  EXPECT_TRUE(p.has_index);
  EXPECT_EQ(p.index, "name");
}

TEST(Lexer, InterpolationPropertyAccess) {
  const auto tokens = lex(R"(<?php "v: $obj->prop";)");
  const InterpPart& p = tokens[0].parts[1];
  EXPECT_EQ(p.text, "obj");
  EXPECT_EQ(p.property, "prop");
}

TEST(Lexer, EscapedDollarNotInterpolated) {
  const auto tokens = lex(R"(<?php "a \$x b";)");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "a $x b");
}

TEST(Lexer, Heredoc) {
  const auto tokens = lex("<?php $x = <<<EOT\nline1\nline2\nEOT;\n");
  // $x = <string> ;
  EXPECT_EQ(tokens[2].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[2].text, "line1\nline2");
}

TEST(Lexer, HeredocWithInterpolation) {
  const auto tokens = lex("<?php $x = <<<EOT\nhello $name!\nEOT;\n");
  EXPECT_EQ(tokens[2].kind, TokenKind::kTemplateString);
  ASSERT_EQ(tokens[2].parts.size(), 3u);
  EXPECT_EQ(tokens[2].parts[1].text, "name");
}

TEST(Lexer, Nowdoc) {
  const auto tokens = lex("<?php $x = <<<'EOT'\nno $interp\nEOT;\n");
  EXPECT_EQ(tokens[2].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[2].text, "no $interp");
}

TEST(Lexer, LineComments) {
  const auto k = kinds("<?php $a; // comment $b\n$c; # another\n$d;");
  EXPECT_EQ(k.size(), 7u);  // 3 vars + 3 semis + eof
}

TEST(Lexer, BlockComment) {
  const auto k = kinds("<?php $a /* $b; */ ;");
  ASSERT_EQ(k.size(), 3u);
  EXPECT_EQ(k[0], TokenKind::kVariable);
  EXPECT_EQ(k[1], TokenKind::kSemicolon);
}

TEST(Lexer, UnterminatedBlockCommentReportsError) {
  SourceManager sm;
  DiagnosticSink diags;
  const FileId id = sm.add_file("t.php", "<?php /* never closed");
  Arena arena;
  (void)lex_file(*sm.file(id), diags, arena);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, UnterminatedStringReportsError) {
  SourceManager sm;
  DiagnosticSink diags;
  const FileId id = sm.add_file("t.php", "<?php $x = 'oops");
  Arena arena;
  (void)lex_file(*sm.file(id), diags, arena);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, OperatorDisambiguation) {
  const auto k = kinds("<?php === == = !== != ! <= <=> < <<;");
  EXPECT_EQ(k[0], TokenKind::kIdentical);
  EXPECT_EQ(k[1], TokenKind::kEqual);
  EXPECT_EQ(k[2], TokenKind::kAssign);
  EXPECT_EQ(k[3], TokenKind::kNotIdentical);
  EXPECT_EQ(k[4], TokenKind::kNotEqual);
  EXPECT_EQ(k[5], TokenKind::kBang);
  EXPECT_EQ(k[6], TokenKind::kLessEqual);
  EXPECT_EQ(k[7], TokenKind::kSpaceship);
  EXPECT_EQ(k[8], TokenKind::kLess);
  EXPECT_EQ(k[9], TokenKind::kShiftLeft);
}

TEST(Lexer, CompoundAssignOperators) {
  const auto k = kinds("<?php += -= *= /= .= %= ??=;");
  EXPECT_EQ(k[0], TokenKind::kPlusAssign);
  EXPECT_EQ(k[1], TokenKind::kMinusAssign);
  EXPECT_EQ(k[2], TokenKind::kStarAssign);
  EXPECT_EQ(k[3], TokenKind::kSlashAssign);
  EXPECT_EQ(k[4], TokenKind::kDotAssign);
  EXPECT_EQ(k[5], TokenKind::kPercentAssign);
  EXPECT_EQ(k[6], TokenKind::kCoalesceAssign);
}

TEST(Lexer, ArrowAndScopeOperators) {
  const auto k = kinds("<?php -> => :: ?? ?;");
  EXPECT_EQ(k[0], TokenKind::kArrow);
  EXPECT_EQ(k[1], TokenKind::kDoubleArrow);
  EXPECT_EQ(k[2], TokenKind::kDoubleColon);
  EXPECT_EQ(k[3], TokenKind::kCoalesce);
  EXPECT_EQ(k[4], TokenKind::kQuestion);
}

TEST(Lexer, PhpAngleOperator) {
  const auto k = kinds("<?php $a <> $b;");
  EXPECT_EQ(k[1], TokenKind::kNotEqual);
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = lex("<?php\n$a;\n$b;\n");
  EXPECT_EQ(tokens[0].loc.line, 2u);  // $a
  EXPECT_EQ(tokens[2].loc.line, 3u);  // $b
}

TEST(Lexer, IncrementDecrement) {
  const auto k = kinds("<?php $a++ + ++$b;");
  EXPECT_EQ(k[1], TokenKind::kPlusPlus);
  EXPECT_EQ(k[2], TokenKind::kPlus);
  EXPECT_EQ(k[3], TokenKind::kPlusPlus);
}

}  // namespace
}  // namespace uchecker::phplex
