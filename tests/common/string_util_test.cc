#include "common/string_util.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string_view>
#include <vector>

namespace ganswer {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("123-X"), "123-x");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(StringUtilTest, SplitDropsEmptyByDefault) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,b,,c", ',', true),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_TRUE(Split("", ',').empty());
  EXPECT_EQ(Split(",", ',', true), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  // The view overload replaces what its output held before.
  std::vector<std::string_view> views = {"stale"};
  SplitWhitespace("  a \t b\nc ", &views);
  EXPECT_EQ(views, (std::vector<std::string_view>{"a", "b", "c"}));
  SplitWhitespace("   ", &views);
  EXPECT_TRUE(views.empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix-rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("name.cc", ".cc"));
  EXPECT_FALSE(EndsWith("cc", "name.cc"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a_b_c", "_", " "), "a b c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("none", "xyz", "q"), "none");
  EXPECT_EQ(ReplaceAll("x", "", "q"), "x");
}

struct EditDistanceCase {
  const char* a;
  const char* b;
  size_t expected;
};

// Prints the case by value. Without this gtest prints the raw bytes of the
// two pointers, which differ from run to run, and the discovered ctest
// names (built from the printed parameter) would change with every build.
void PrintTo(const EditDistanceCase& c, std::ostream* os) {
  *os << "a=" << c.a << ",b=" << c.b << ",d=" << c.expected;
}

class EditDistanceTest : public ::testing::TestWithParam<EditDistanceCase> {};

TEST_P(EditDistanceTest, MatchesExpected) {
  const auto& c = GetParam();
  EXPECT_EQ(EditDistance(c.a, c.b), c.expected);
  EXPECT_EQ(EditDistance(c.b, c.a), c.expected) << "symmetry";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EditDistanceTest,
    ::testing::Values(EditDistanceCase{"", "", 0},
                      EditDistanceCase{"a", "", 1},
                      EditDistanceCase{"kitten", "sitting", 3},
                      EditDistanceCase{"flaw", "lawn", 2},
                      EditDistanceCase{"same", "same", 0},
                      EditDistanceCase{"abc", "cba", 2}));

TEST(StringUtilTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "b c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("A", "a"), 1.0) << "case-insensitive";
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("x", "y"), 0.0);
}

TEST(StringUtilTest, BigramDice) {
  EXPECT_DOUBLE_EQ(BigramDice("night", "night"), 1.0);
  EXPECT_GT(BigramDice("night", "nacht"), 0.0);
  EXPECT_DOUBLE_EQ(BigramDice("a", "ab"), 0.0) << "too short";
  EXPECT_GT(BigramDice("philadelphia", "philadelphia 76ers"), 0.5);
}

TEST(StringUtilTest, NormalizeLabel) {
  EXPECT_EQ(NormalizeLabel("Philadelphia_(film)"), "philadelphia");
  EXPECT_EQ(NormalizeLabel("Antonio_Banderas"), "antonio banderas");
  EXPECT_EQ(NormalizeLabel("  Salt_Lake_City "), "salt lake city");
  EXPECT_EQ(NormalizeLabel("a__b"), "a b");
  EXPECT_EQ(NormalizeLabel(""), "");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("1.2"));
}

TEST(StringUtilTest, JsonEscapePassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("who is the mayor of Berlin ?"),
            "who is the mayor of Berlin ?");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(StringUtilTest, JsonEscapeQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
}

TEST(StringUtilTest, JsonEscapeNamedControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
}

TEST(StringUtilTest, JsonEscapeOtherControlBytesAsUnicode) {
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string("a\x00z", 3)), "a\\u0000z");
}

TEST(StringUtilTest, JsonEscapeLeavesUtf8Alone) {
  // Multi-byte UTF-8 (é, 😀) must pass through byte-identical.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(JsonEscape("\xF0\x9F\x98\x80"), "\xF0\x9F\x98\x80");
}

TEST(StringUtilTest, AppendJsonEscapedAppends) {
  std::string out = "prefix:";
  AppendJsonEscaped(&out, "x\"y");
  EXPECT_EQ(out, "prefix:x\\\"y");
}

}  // namespace
}  // namespace ganswer
