// Tests for the minimal flag parser used by the experiment harnesses.
#include <gtest/gtest.h>

#include "common/flags.h"

namespace driftsync {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = make({"--duration=12.5", "--seed=42"});
  EXPECT_DOUBLE_EQ(f.get_double("duration", 0.0), 12.5);
  EXPECT_EQ(f.get_seed("seed", 0), 42u);
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = make({"--procs", "16"});
  EXPECT_EQ(f.get_int("procs", 0), 16);
}

TEST(FlagsTest, Defaults) {
  const Flags f = make({});
  EXPECT_FALSE(f.has("x"));
  EXPECT_DOUBLE_EQ(f.get_double("x", 3.5), 3.5);
  EXPECT_EQ(f.get_string("x", "abc"), "abc");
  EXPECT_TRUE(f.get_bool("x", true));
}

TEST(FlagsTest, Booleans) {
  const Flags f = make({"--a=true", "--b=0", "--c=on"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
}

TEST(FlagsTest, Positional) {
  const Flags f = make({"input.txt", "--k=1", "more"});
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.txt", "more"}));
}

TEST(FlagsTest, HexSeed) {
  const Flags f = make({"--seed=0xdeadbeef"});
  EXPECT_EQ(f.get_seed("seed", 0), 0xdeadbeefull);
}

TEST(FlagsTest, MalformedThrows) {
  EXPECT_THROW(make({"--dangling"}), FlagError);
  const Flags f = make({"--n=abc"});
  EXPECT_THROW((void)f.get_int("n", 0), FlagError);
  EXPECT_THROW((void)f.get_double("n", 0), FlagError);
  const Flags g = make({"--b=maybe"});
  EXPECT_THROW((void)g.get_bool("b", false), FlagError);
  const Flags h = make({"--seed=zzz"});
  EXPECT_THROW((void)h.get_seed("seed", 0), FlagError);
}

TEST(FlagsTest, MalformedValueIsNotSilentlyIgnored) {
  // A trailing-garbage numeric value must error, not round down.
  const Flags f = make({"--poll=0.25s"});
  EXPECT_THROW((void)f.get_double("poll", 0.0), FlagError);
}

TEST(FlagsTest, GetUintParsesDecimalCounts) {
  const Flags f = make({"--reps=7", "--budget=18446744073709551615"});
  EXPECT_EQ(f.get_uint("reps", 0), 7u);
  // The full uint64 range is representable.
  EXPECT_EQ(f.get_uint("budget", 0), 18446744073709551615ull);
  EXPECT_EQ(f.get_uint("absent", 3), 3u);
}

TEST(FlagsTest, UnsignedGettersRejectNegatives) {
  // "-1" must error, not wrap to 2^64 - 1 (strtoull fails open here).
  const Flags f = make({"--n=-1"});
  EXPECT_THROW((void)f.get_uint("n", 0), FlagError);
  EXPECT_THROW((void)f.get_seed("n", 0), FlagError);
}

TEST(FlagsTest, GetUintRangeAcceptsInRangeAndFallback) {
  const Flags f = make({"--max-clients=4096"});
  EXPECT_EQ(f.get_uint_range("max-clients", 1024, 1, 1u << 20), 4096u);
  // Absent flag: the fallback is returned (it must itself be in range).
  EXPECT_EQ(f.get_uint_range("client-idle-ms", 30000, 1, 86400000), 30000u);
  // Boundary values are inclusive.
  const Flags g = make({"--a=1", "--b=64"});
  EXPECT_EQ(g.get_uint_range("a", 8, 1, 64), 1u);
  EXPECT_EQ(g.get_uint_range("b", 8, 1, 64), 64u);
}

TEST(FlagsTest, GetUintRangeRejectsOutOfRangeWithUsableText) {
  // "--max-clients=0" is nonsensical (a serving node with no sessions) and
  // must die at startup naming the valid range, not fail open.
  const Flags f = make({"--max-clients=0", "--shards=65"});
  try {
    (void)f.get_uint_range("max-clients", 1024, 1, 1u << 20);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--max-clients=0"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, "), std::string::npos) << what;
  }
  EXPECT_THROW((void)f.get_uint_range("shards", 1, 1, 64), FlagError);
}

TEST(FlagsTest, GetUintRangeStillRejectsMalformedValues) {
  // The range check layers on get_uint: syntax errors keep their own text.
  const Flags f = make({"--n=abc", "--m=-1"});
  EXPECT_THROW((void)f.get_uint_range("n", 1, 1, 10), FlagError);
  EXPECT_THROW((void)f.get_uint_range("m", 1, 1, 10), FlagError);
}

TEST(FlagsTest, NumericGettersRejectTrailingGarbage) {
  const Flags f = make({"--n=12x", "--m=0x10zz"});
  EXPECT_THROW((void)f.get_uint("n", 0), FlagError);
  EXPECT_THROW((void)f.get_int("n", 0), FlagError);
  EXPECT_THROW((void)f.get_seed("m", 0), FlagError);
}

TEST(FlagsTest, NumericGettersRejectOverflow) {
  // One past the respective maxima: strto* would saturate silently.
  const Flags f = make({"--u=18446744073709551616", "--i=9223372036854775808"});
  EXPECT_THROW((void)f.get_uint("u", 0), FlagError);
  EXPECT_THROW((void)f.get_int("i", 0), FlagError);
  const Flags g = make({"--d=1e999"});
  EXPECT_THROW((void)g.get_double("d", 0.0), FlagError);
}

TEST(FlagsTest, NumericGettersRejectWhitespaceAndEmpty) {
  const Flags f = make({"--n= 5", "--e="});
  EXPECT_THROW((void)f.get_uint("n", 0), FlagError);
  EXPECT_THROW((void)f.get_int("e", 0), FlagError);
  EXPECT_THROW((void)f.get_double("e", 0.0), FlagError);
}

TEST(FlagsTest, GetSubsetMatchesExactNamesInAllowedOrder) {
  const std::vector<std::string> topos{"ring", "grid", "star", "random"};
  EXPECT_EQ(make({}).get_subset("topos", topos), topos);
  EXPECT_EQ(make({"--topos=random,ring"}).get_subset("topos", topos),
            (std::vector<std::string>{"ring", "random"}));
  // Substrings, typos, empty entries, repeats and empty lists all fail.
  for (const char* bad :
       {"--topos=rin", "--topos=rign", "--topos=ring,", "--topos=",
        "--topos=ring,grid,stars", "--topos=ring,ring", "--topos=ring grid"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)make({bad}).get_subset("topos", topos), FlagError);
  }
}

TEST(FlagsTest, RejectUnknownPassesWhenAllRead) {
  const Flags f = make({"--a=1", "--b=2"});
  (void)f.get_int("a", 0);
  EXPECT_TRUE(f.has("b"));
  EXPECT_TRUE(f.unknown_keys().empty());
  EXPECT_NO_THROW(f.reject_unknown());
}

TEST(FlagsTest, RejectUnknownThrowsOnUnreadFlag) {
  const Flags f = make({"--a=1", "--typo=2", "--bogus=3"});
  (void)f.get_int("a", 0);
  EXPECT_EQ(f.unknown_keys(), (std::vector<std::string>{"bogus", "typo"}));
  try {
    f.reject_unknown("usage: prog --a=N");
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--typo"), std::string::npos) << what;
    EXPECT_NE(what.find("--bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("usage: prog --a=N"), std::string::npos) << what;
  }
}

TEST(FlagsTest, RejectUnknownWithNothingPassed) {
  const Flags f = make({});
  EXPECT_NO_THROW(f.reject_unknown("usage"));
}

TEST(FlagsTest, FlagErrorIsRuntimeNotLogicError) {
  // Misconfiguration is operator input, not a programming bug: it must not
  // be conflated with DS_CHECK failures.
  const Flags f = make({"--n=abc"});
  try {
    (void)f.get_int("n", 0);
    FAIL() << "expected FlagError";
  } catch (const std::runtime_error&) {
  } catch (...) {
    FAIL() << "FlagError must derive from std::runtime_error";
  }
}

}  // namespace
}  // namespace driftsync
