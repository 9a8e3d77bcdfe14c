#include "common/flags.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace akb {
namespace {

FlagSet ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagSet::Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet flags = ParseArgs({"--name=value", "--n=42"});
  EXPECT_EQ(flags.GetString("name"), "value");
  EXPECT_EQ(flags.GetInt("n"), 42);
}

TEST(FlagsTest, SpaceSyntax) {
  FlagSet flags = ParseArgs({"--name", "value", "--n", "42"});
  EXPECT_EQ(flags.GetString("name"), "value");
  EXPECT_EQ(flags.GetInt("n"), 42);
}

TEST(FlagsTest, BareBooleanFlag) {
  FlagSet flags = ParseArgs({"--verbose", "--output=x"});
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("missing"));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagsTest, BoolValueForms) {
  EXPECT_TRUE(ParseArgs({"--x=true"}).GetBool("x"));
  EXPECT_TRUE(ParseArgs({"--x=1"}).GetBool("x"));
  EXPECT_TRUE(ParseArgs({"--x=yes"}).GetBool("x"));
  EXPECT_FALSE(ParseArgs({"--x=false"}).GetBool("x"));
  EXPECT_FALSE(ParseArgs({"--x=0"}).GetBool("x"));
}

TEST(FlagsTest, Positionals) {
  FlagSet flags = ParseArgs({"command", "--n=1", "file.nt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "command");
  EXPECT_EQ(flags.positional()[1], "file.nt");
}

TEST(FlagsTest, DoubleDashEndsFlags) {
  FlagSet flags = ParseArgs({"--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(flags.Has("a"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, NumericFallbacks) {
  FlagSet flags = ParseArgs({"--bad=abc", "--d=2.5"});
  EXPECT_EQ(flags.GetInt("bad", 7), 7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("bad", 1.5), 1.5);
}

TEST(FlagsTest, ListSplitting) {
  FlagSet flags = ParseArgs({"--classes=Book, Film ,Country"});
  auto list = flags.GetList("classes");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "Book");
  EXPECT_EQ(list[1], "Film");
  EXPECT_EQ(list[2], "Country");
  EXPECT_TRUE(flags.GetList("missing").empty());
}

TEST(FlagsTest, NegativeNumberAsValue) {
  // "-5" does not start with "--", so it is consumed as the value.
  FlagSet flags = ParseArgs({"--n", "-5"});
  EXPECT_EQ(flags.GetInt("n"), -5);
}

TEST(FlagsTest, LastOccurrenceWins) {
  FlagSet flags = ParseArgs({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n"), 2);
}

TEST(FlagsTest, GetDoubleParsesCommonForms) {
  FlagSet flags = ParseArgs({"--a=2.5", "--b=-0.75", "--c=1e3", "--d=4"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("a"), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("b"), -0.75);
  EXPECT_DOUBLE_EQ(flags.GetDouble("c"), 1000.0);
  // An integer-shaped value reads through both numeric accessors.
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 4.0);
  EXPECT_EQ(flags.GetInt("d"), 4);
}

TEST(FlagsTest, NumericParsingToleratesWhitespaceAndPlus) {
  FlagSet flags = ParseArgs({"--n", " 42 ", "--d", " +2.5", "--p=+7"});
  EXPECT_EQ(flags.GetInt("n"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 2.5);
  EXPECT_EQ(flags.GetInt("p"), 7);
}

TEST(FlagsTest, TrailingJunkFallsBackToDefault) {
  FlagSet flags = ParseArgs({"--n=42abc", "--d=2.5x"});
  EXPECT_EQ(flags.GetInt("n", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 1.5), 1.5);
}

TEST(FlagsTest, EqualsAndSpaceSyntaxAgreeAcrossAccessors) {
  FlagSet eq = ParseArgs({"--s=text", "--n=5", "--d=0.5", "--b=true"});
  FlagSet sp = ParseArgs({"--s", "text", "--n", "5", "--d", "0.5",
                          "--b", "true"});
  EXPECT_EQ(eq.GetString("s"), sp.GetString("s"));
  EXPECT_EQ(eq.GetInt("n"), sp.GetInt("n"));
  EXPECT_DOUBLE_EQ(eq.GetDouble("d"), sp.GetDouble("d"));
  EXPECT_EQ(eq.GetBool("b"), sp.GetBool("b"));
}

TEST(FlagsTest, NoPrefixNegatesDefaultedOnBool) {
  FlagSet flags = ParseArgs({"--no-taxonomy"});
  EXPECT_FALSE(flags.GetBool("taxonomy", true));
  // Explicit "--name" wins over "--no-name".
  FlagSet both = ParseArgs({"--no-taxonomy", "--taxonomy=true"});
  EXPECT_TRUE(both.GetBool("taxonomy", false));
  // Absent entirely: fallback rules.
  EXPECT_TRUE(ParseArgs({}).GetBool("taxonomy", true));
}

TEST(FlagsTest, BoolValueTrimsWhitespace) {
  FlagSet flags = ParseArgs({"--x", " true ", "--y", " 0 "});
  EXPECT_TRUE(flags.GetBool("x"));
  EXPECT_FALSE(flags.GetBool("y"));
}

TEST(FlagsTest, StrictAccessorsReadValidValues) {
  FlagSet flags = ParseArgs({"--n= +42 ", "--neg=-3", "--d=0.25"});
  EXPECT_EQ(flags.GetIntStrict("n", 0).value(), 42);
  EXPECT_EQ(flags.GetIntStrict("neg", 0).value(), -3);
  EXPECT_EQ(flags.GetIntStrict("n", 0, 42, 42).value(), 42);
  EXPECT_DOUBLE_EQ(flags.GetDoubleStrict("d", 0).value(), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDoubleStrict("n", 0).value(), 42.0);
  // Absent: the fallback, even outside the range.
  EXPECT_EQ(flags.GetIntStrict("missing", -7, 0, 10).value(), -7);
  EXPECT_DOUBLE_EQ(flags.GetDoubleStrict("missing", 1.5).value(), 1.5);
}

TEST(FlagsTest, StrictAccessorsRejectMalformedValuesAndNameTheFlag) {
  FlagSet flags = ParseArgs({"--port=abc", "--n=42abc", "--f=1.5",
                             "--empty=", "--d=2.5x", "--inf=inf",
                             "--nan=nan"});
  for (const char* name : {"port", "n", "f", "empty"}) {
    Result<int64_t> r = flags.GetIntStrict(name, 7);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(std::string("--") + name + "="),
              std::string::npos)
        << r.status().message();
  }
  for (const char* name : {"port", "empty", "d", "inf", "nan"}) {
    Result<double> r = flags.GetDoubleStrict(name, 1.0);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(std::string("--") + name + "="),
              std::string::npos);
  }
  // The lenient accessors keep falling back for the same values.
  EXPECT_EQ(flags.GetInt("port", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 1.5), 1.5);
}

TEST(FlagsTest, StrictIntRejectsOutOfRangeValues) {
  FlagSet flags = ParseArgs({"--port=70000", "--queries=-1", "--big=1e3",
                             "--huge=99999999999999999999"});
  Result<int64_t> port = flags.GetIntStrict("port", 0, 0, 65535);
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.status().message(), "--port=70000 is out of range [0, 65535]");
  Result<int64_t> queries = flags.GetIntStrict(
      "queries", 0, 0, std::numeric_limits<int64_t>::max());
  ASSERT_FALSE(queries.ok());
  EXPECT_EQ(queries.status().message(), "--queries=-1 must not be negative");
  // Exponent forms and int64 overflow are malformed integers, not wraps.
  EXPECT_FALSE(flags.GetIntStrict("big", 0).ok());
  EXPECT_FALSE(flags.GetIntStrict("huge", 0).ok());
}

TEST(DurationTest, ParsesEveryUnit) {
  EXPECT_EQ(ParseDuration("17ns").value(), 17);
  EXPECT_EQ(ParseDuration("3us").value(), 3'000);
  EXPECT_EQ(ParseDuration("250ms").value(), 250'000'000);
  EXPECT_EQ(ParseDuration("2s").value(), 2'000'000'000);
  EXPECT_EQ(ParseDuration("1m").value(), 60'000'000'000);
  EXPECT_EQ(ParseDuration("1h").value(), 3'600'000'000'000);
}

TEST(DurationTest, FractionsAndZero) {
  EXPECT_EQ(ParseDuration("1.5s").value(), 1'500'000'000);
  EXPECT_EQ(ParseDuration("0.25ms").value(), 250'000);
  EXPECT_EQ(ParseDuration("0s").value(), 0);
  EXPECT_EQ(ParseDuration(" 2s ").value(), 2'000'000'000);
}

TEST(DurationTest, RejectsMalformedInput) {
  // Empty, missing unit, missing number.
  EXPECT_EQ(ParseDuration("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("250").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("ms").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration(".s").status().code(),
            StatusCode::kInvalidArgument);
  // Signs and exponents are not accepted in the number body.
  EXPECT_EQ(ParseDuration("-5ms").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("+5ms").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("1e9s").status().code(),
            StatusCode::kInvalidArgument);
  // Unknown or composite units.
  EXPECT_EQ(ParseDuration("5sec").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("5 ms").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("1m30s").status().code(),
            StatusCode::kInvalidArgument);
  // Overflow past int64 nanoseconds.
  EXPECT_EQ(ParseDuration("300y").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("9999999999h").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DurationTest, GetDurationUsesFallbackWhenAbsent) {
  FlagSet flags = ParseArgs({"--deadline=250ms"});
  EXPECT_EQ(flags.GetDuration("deadline", 0).value(), 250'000'000);
  EXPECT_EQ(flags.GetDuration("missing", 42).value(), 42);
}

TEST(DurationTest, GetDurationRejectsBadValueAndNamesTheFlag) {
  FlagSet flags = ParseArgs({"--deadline=fast"});
  Result<int64_t> r = flags.GetDuration("deadline", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("--deadline"), std::string::npos);
}

}  // namespace
}  // namespace akb
