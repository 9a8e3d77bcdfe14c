#include "common/string_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/random.h"

namespace akb {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, Basic) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("\t\n x y \r"), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(CaseTest, LowerUpper) {
  EXPECT_EQ(ToLower("AbC-9"), "abc-9");
  EXPECT_EQ(ToUpper("AbC-9"), "ABC-9");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foo", ""));
}

TEST(ReplaceAllTest, Basic) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("hello world", "o", "0"), "hell0 w0rld");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
  EXPECT_EQ(ReplaceAll("abab", "ab", "ab"), "abab");
}

TEST(IsDigitsTest, Basic) {
  EXPECT_TRUE(IsDigits("0123"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits("-1"));
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("abcdef", "azced"), EditDistance("azced", "abcdef"));
}

TEST(EditDistanceWithinTest, KnownValues) {
  EXPECT_EQ(EditDistanceWithin("kitten", "sitting", 3), 3u);
  EXPECT_EQ(EditDistanceWithin("kitten", "sitting", 2), 3u);
  EXPECT_EQ(EditDistanceWithin("kitten", "sitting", 0), 1u);
  EXPECT_EQ(EditDistanceWithin("", "", 0), 0u);
  EXPECT_EQ(EditDistanceWithin("abc", "", 5), 3u);
  EXPECT_EQ(EditDistanceWithin("", "abc", 1), 2u);
  EXPECT_EQ(EditDistanceWithin("total budget", "total budgte", 2), 2u);
  EXPECT_EQ(EditDistanceWithin("abc", "xyz", SIZE_MAX), 3u);
}

// Property: on random strings of mixed lengths (empty included) and every
// budget up to the longer length, the bounded distance is the exact one
// capped at budget + 1, in both argument orders.
TEST(EditDistanceWithinTest, MatchesCappedEditDistance) {
  Rng rng(20261017);
  auto random_string = [&rng] {
    // A small alphabet makes near-matches (and so small distances) common.
    static constexpr char kAlphabet[] = "abcde \xc3";
    size_t length = rng.Index(14);
    std::string out;
    for (size_t i = 0; i < length; ++i) {
      out.push_back(kAlphabet[rng.Index(sizeof(kAlphabet) - 1)]);
    }
    return out;
  };
  for (int trial = 0; trial < 600; ++trial) {
    std::string a = random_string();
    std::string b = trial % 3 == 0 ? a : random_string();
    if (trial % 3 == 0 && !b.empty()) b[rng.Index(b.size())] = 'z';
    size_t exact = EditDistance(a, b);
    for (size_t k = 0; k <= std::max(a.size(), b.size()); ++k) {
      size_t expected = std::min(exact, k + 1);
      EXPECT_EQ(EditDistanceWithin(a, b, k), expected)
          << "a='" << a << "' b='" << b << "' k=" << k;
      EXPECT_EQ(EditDistanceWithin(b, a, k), expected)
          << "a='" << b << "' b='" << a << "' k=" << k;
    }
  }
}

TEST(EditSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("budget", "budge"), 1.0 - 1.0 / 6.0, 1e-9);
}

TEST(TokenJaccardTest, Basic) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "b a"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "a c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a", ""), 0.0);
}

TEST(NormalizeSurfaceTest, CollapsesPunctuationAndCase) {
  EXPECT_EQ(NormalizeSurface("Birth Place"), "birth place");
  EXPECT_EQ(NormalizeSurface("birth-place"), "birth place");
  EXPECT_EQ(NormalizeSurface("  birth   place "), "birth place");
  EXPECT_EQ(NormalizeSurface("birth_place!"), "birth place");
  EXPECT_EQ(NormalizeSurface(""), "");
  EXPECT_EQ(NormalizeSurface("?!"), "");
}

TEST(NormalizeIdentifierTest, SplitsIdentifierStyles) {
  EXPECT_EQ(NormalizeIdentifier("birthPlace"), "birth place");
  EXPECT_EQ(NormalizeIdentifier("birth_place"), "birth place");
  EXPECT_EQ(NormalizeIdentifier("birth-place"), "birth place");
  EXPECT_EQ(NormalizeIdentifier("Birth Place"), "birth place");
  EXPECT_EQ(NormalizeIdentifier("totalGrossRevenue"),
            "total gross revenue");
}

TEST(TitleCaseTest, Basic) {
  EXPECT_EQ(TitleCase("hello world"), "Hello World");
  EXPECT_EQ(TitleCase("a"), "A");
  EXPECT_EQ(TitleCase(""), "");
  EXPECT_EQ(TitleCase("already Upper"), "Already Upper");
}

TEST(FormatDoubleTest, Decimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(FormatWithCommasTest, Grouping) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(29283918), "29,283,918");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

// Property: NormalizeSurface is idempotent for a sweep of inputs.
class NormalizeIdempotent : public ::testing::TestWithParam<const char*> {};

TEST_P(NormalizeIdempotent, Idempotent) {
  std::string once = NormalizeSurface(GetParam());
  EXPECT_EQ(NormalizeSurface(once), once);
}

INSTANTIATE_TEST_SUITE_P(Surfaces, NormalizeIdempotent,
                         ::testing::Values("Birth Place", "birthPlace",
                                           "  A--B__C  ", "123 main st.",
                                           "ALL CAPS!", "", "of-the_thing"));

}  // namespace
}  // namespace akb
