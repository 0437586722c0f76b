#include "support/strutil.h"

#include <gtest/gtest.h>

namespace uchecker::strutil {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t\nabc\r\n"), "abc");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Trim, PreservesInnerWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("ABC"), "abc");
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(ToUpper, Basic) { EXPECT_EQ(to_upper("abC"), "ABC"); }

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Move_Uploaded_File", "move_uploaded_file"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(StartsEndsWith, CaseInsensitive) {
  EXPECT_TRUE(starts_with_i("FooBar", "foo"));
  EXPECT_FALSE(starts_with_i("FooBar", "bar"));
  EXPECT_TRUE(ends_with_i("upload.PHP", ".php"));
  EXPECT_FALSE(ends_with_i("upload.png", ".php"));
  EXPECT_FALSE(ends_with_i("hp", ".php"));
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, NoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, Empty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(ReplaceAll, Basic) {
  EXPECT_EQ(replace_all("a.b.c", ".", "/"), "a/b/c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(ReplaceAll, EmptyPattern) { EXPECT_EQ(replace_all("abc", "", "y"), "abc"); }

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int(" 99 "), 99);
}

TEST(ParseInt, Invalid) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12a").has_value());
  EXPECT_FALSE(parse_int("a12").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(PhpIntval, LeadingNumericPrefix) {
  EXPECT_EQ(php_intval("42abc"), 42);
  EXPECT_EQ(php_intval("abc"), 0);
  EXPECT_EQ(php_intval("-7xyz"), -7);
  EXPECT_EQ(php_intval(""), 0);
  EXPECT_EQ(php_intval("  13 "), 13);
}

TEST(FileExtension, Basic) {
  EXPECT_EQ(file_extension("a/b/c.php"), "php");
  EXPECT_EQ(file_extension("c.tar.gz"), "gz");
  EXPECT_EQ(file_extension("noext"), "");
  EXPECT_EQ(file_extension("dir.d/noext"), "");
  EXPECT_EQ(file_extension("trailing."), "");
}

TEST(PathBasename, PhpSemantics) {
  EXPECT_EQ(path_basename("/var/www/upload.php"), "upload.php");
  EXPECT_EQ(path_basename("upload.php"), "upload.php");
  EXPECT_EQ(path_basename("/var/www/"), "www");
  EXPECT_EQ(path_basename("c:\\temp\\x.txt"), "x.txt");
}

TEST(Quote, EscapesSpecials) {
  EXPECT_EQ(quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(quote(std::string("\0\x01\x1f\x7f", 4)),
            "\"\\u0000\\u0001\\u001f\x7f\"");
  EXPECT_EQ(quote(""), "\"\"");
}

}  // namespace
}  // namespace uchecker::strutil
