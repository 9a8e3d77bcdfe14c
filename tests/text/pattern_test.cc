#include "text/pattern.h"

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "text/tokenize.h"

namespace akb::text {
namespace {

Pattern MustParse(const std::string& spec) {
  auto p = Pattern::Parse(spec);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(PatternParseTest, AcceptsValidSpecs) {
  EXPECT_TRUE(Pattern::Parse("what is the [A] of [E]").ok());
  EXPECT_TRUE(Pattern::Parse("(a|b|c) [X]").ok());
  EXPECT_TRUE(Pattern::Parse("?(the|a) [X]").ok());
}

TEST(PatternParseTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(Pattern::Parse("").ok());
  EXPECT_FALSE(Pattern::Parse("[unclosed").ok());
  EXPECT_FALSE(Pattern::Parse("(a||b) x").ok());
  EXPECT_FALSE(Pattern::Parse("?notparen").ok());
  EXPECT_FALSE(Pattern::Parse("[]").ok());
}

TEST(PatternParseTest, SlotNamesInOrder) {
  Pattern p = MustParse("the [A] of [E] is [V]");
  EXPECT_EQ(p.slot_names(), (std::vector<std::string>{"A", "E", "V"}));
}

TEST(PatternMatchTest, LiteralSequence) {
  Pattern p = MustParse("hello world");
  PatternMatch m;
  EXPECT_TRUE(p.MatchAt({"hello", "world"}, 0, 4, &m));
  EXPECT_FALSE(p.MatchAt({"hello", "there"}, 0, 4, &m));
}

TEST(PatternMatchTest, SlotCapturesTokens) {
  Pattern p = MustParse("the [A] of");
  PatternMatch m;
  ASSERT_TRUE(p.MatchAt({"the", "total", "budget", "of"}, 0, 4, &m));
  EXPECT_EQ(m.slots.at("A").begin, 1u);
  EXPECT_EQ(m.slots.at("A").end, 3u);
}

TEST(PatternMatchTest, InteriorSlotIsLazy) {
  // With literal context on both sides, the slot binds minimally but
  // correctly extends when needed.
  Pattern p = MustParse("the [A] of [E]");
  auto tokens = TokenizeWords("the original title of x");
  PatternMatch m;
  ASSERT_TRUE(p.MatchAt(tokens, 0, 4, &m));
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("A").begin, m.slots.at("A").end),
            "original title");
}

TEST(PatternMatchTest, FinalSlotIsGreedy) {
  Pattern p = MustParse("[E] 's [A]");
  auto tokens = TokenizeWords("harbor's original title");
  PatternMatch m;
  ASSERT_TRUE(p.MatchAt(tokens, 0, 4, &m));
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("A").begin, m.slots.at("A").end),
            "original title");
}

TEST(PatternMatchTest, SlotStopsAtPunctuation) {
  Pattern p = MustParse("is [V]");
  auto tokens = TokenizeWords("is forty two. next");
  PatternMatch m;
  ASSERT_TRUE(p.MatchAt(tokens, 0, 5, &m));
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("V").begin, m.slots.at("V").end),
            "forty two");
}

TEST(PatternMatchTest, SlotRespectsMaxTokens) {
  Pattern p = MustParse("x [A] y");
  std::vector<std::string> tokens{"x", "a", "b", "c", "y"};
  PatternMatch m;
  EXPECT_FALSE(p.MatchAt(tokens, 0, 2, &m));
  EXPECT_TRUE(p.MatchAt(tokens, 0, 3, &m));
}

TEST(PatternMatchTest, AlternationMatchesOneWord) {
  Pattern p = MustParse("(what|how|who) is");
  PatternMatch m;
  EXPECT_TRUE(p.MatchAt({"what", "is"}, 0, 4, &m));
  EXPECT_TRUE(p.MatchAt({"who", "is"}, 0, 4, &m));
  EXPECT_FALSE(p.MatchAt({"when", "is"}, 0, 4, &m));
}

TEST(PatternMatchTest, OptionalGroupMayBeAbsent) {
  Pattern p = MustParse("of ?(the|a|an) [E]");
  PatternMatch m;
  ASSERT_TRUE(p.MatchAt({"of", "the", "city"}, 0, 4, &m));
  EXPECT_EQ(m.slots.at("E").begin, 2u);
  ASSERT_TRUE(p.MatchAt({"of", "city"}, 0, 4, &m));
  EXPECT_EQ(m.slots.at("E").begin, 1u);
}

TEST(PatternMatchTest, CaseInsensitiveLiterals) {
  // Spec literals are lowercased; matching is against lowercased tokens.
  Pattern p = MustParse("The Budget");
  PatternMatch m;
  EXPECT_TRUE(p.MatchAt({"the", "budget"}, 0, 4, &m));
}

TEST(MatchWholeTest, RequiresFullConsumption) {
  Pattern p = MustParse("the [A] of [E]");
  auto exact = TokenizeWords("the budget of x");
  auto longer = TokenizeWords("the budget of x today");
  PatternMatch m;
  EXPECT_TRUE(p.MatchWhole(exact, 4, &m));
  EXPECT_FALSE(p.MatchWhole(longer, 1, &m));
  // With enough slot budget the final slot absorbs the tail.
  EXPECT_TRUE(p.MatchWhole(longer, 4, &m));
  EXPECT_EQ(m.slots.at("E").end, longer.size());
}

TEST(MatchWholeTest, BacktracksInteriorSlot) {
  Pattern p = MustParse("[E] 's [A]");
  auto tokens = TokenizeWords("the silent harbor's budget");
  // [E] must stretch over three tokens for 's to align.
  PatternMatch m;
  ASSERT_TRUE(p.MatchWhole(tokens, 4, &m));
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("E").begin, m.slots.at("E").end),
            "the silent harbor");
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("A").begin, m.slots.at("A").end),
            "budget");
}

TEST(FindAllTest, FindsNonOverlappingMatches) {
  Pattern p = MustParse("x [A]");
  std::vector<std::string> tokens{"x", "a", "x", "b", "y", "x", "c"};
  auto matches = p.FindAll(tokens, 1);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].slots.at("A").begin, 1u);
  EXPECT_EQ(matches[1].slots.at("A").begin, 3u);
  EXPECT_EQ(matches[2].slots.at("A").begin, 6u);
}

TEST(FindAllTest, EmptyTokenSequence) {
  Pattern p = MustParse("x");
  EXPECT_TRUE(p.FindAll({}, 4).empty());
}

TEST(FindAllTest, ExtentCoversMatch) {
  Pattern p = MustParse("the [A] of [E]");
  auto tokens = TokenizeWords("say the budget of x now");
  auto matches = p.FindAll(tokens, 4);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].extent.begin, 1u);
  EXPECT_GE(matches[0].extent.end, 5u);
}

// The paper's own pattern family against realistic queries.
struct QueryCase {
  const char* spec;
  const char* query;
  const char* expect_a;
};

// Prints a case as its expected attribute. gtest would otherwise print the
// struct's raw pointer bytes, which change from one run to the next and so
// give the case an unstable name in ctest.
void PrintTo(const QueryCase& qc, std::ostream* os) {
  std::string name = qc.expect_a;
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  *os << name;
}

class PaperPatternTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(PaperPatternTest, CapturesAttribute) {
  const QueryCase& qc = GetParam();
  Pattern p = MustParse(qc.spec);
  auto tokens = TokenizeWords(qc.query);
  PatternMatch m;
  ASSERT_TRUE(p.MatchWhole(tokens, 4, &m)) << qc.query;
  EXPECT_EQ(JoinTokens(tokens, m.slots.at("A").begin, m.slots.at("A").end),
            qc.expect_a);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, PaperPatternTest,
    ::testing::Values(
        QueryCase{"(what|how|when|who) is the [A] of ?(the|a|an) [E]",
                  "what is the capital of france", "capital"},
        QueryCase{"(what|how|when|who) is the [A] of ?(the|a|an) [E]",
                  "who is the director of the godfather", "director"},
        QueryCase{"the [A] of ?(the|a|an) [E]",
                  "the population of an island", "population"},
        QueryCase{"[E] 's [A]", "france's total area", "total area"},
        QueryCase{"[A] of ?(the|a|an) [E]", "budget of titanic", "budget"}));

}  // namespace
}  // namespace akb::text
