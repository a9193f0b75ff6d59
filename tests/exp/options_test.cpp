// Tests for expt::Options command-line parsing — especially the strict
// rejection of unknown flags and unparsable numeric values (parse
// records the error; callers exit 2).
#include "exp/options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

expt::Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  expt::Options opt;
  opt.parse(static_cast<int>(args.size()),
            const_cast<char**>(args.data()));
  return opt;
}

TEST(Options, ParsesKnownFlags) {
  const expt::Options opt =
      parse({"--scale=0.5", "--check", "--csv", "--seed=7", "-j", "4",
             "--repeat=2", "--golden=g.txt", "--policy=sync_full",
             "--audit"});
  EXPECT_TRUE(opt.error.empty());
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_TRUE(opt.scale_given);
  EXPECT_TRUE(opt.check);
  EXPECT_TRUE(opt.csv);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.repeat, 2);
  EXPECT_EQ(opt.golden, "g.txt");
  EXPECT_EQ(opt.policy, "sync_full");
  EXPECT_TRUE(opt.audit);
}

TEST(Options, AuditDefaultsOff) {
  const expt::Options opt = parse({"--check"});
  EXPECT_FALSE(opt.audit);
}

// --help is the driver's to answer: parse only records it, so there is
// one usage text and the parser never exits the process.
TEST(Options, HelpSetsTheFlagAndPrintsNothing) {
  for (const char* flag : {"--help", "-h"}) {
    testing::internal::CaptureStdout();
    const expt::Options opt = parse({"--check", flag});
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << flag;
    EXPECT_TRUE(opt.help) << flag;
    EXPECT_TRUE(opt.error.empty()) << flag;
    EXPECT_TRUE(opt.check) << flag;
  }
  EXPECT_FALSE(parse({"--check"}).help);
}

TEST(Options, RejectsUnknownLongFlag) {
  const expt::Options opt = parse({"--check", "--no-such-flag"});
  ASSERT_FALSE(opt.error.empty());
  // The message names the offending flag and lists the valid ones.
  EXPECT_NE(opt.error.find("--no-such-flag"), std::string::npos);
  EXPECT_NE(opt.error.find("--scale=X"), std::string::npos);
  EXPECT_NE(opt.error.find("--golden=PATH"), std::string::npos);
  // Flags before the bad one still took effect.
  EXPECT_TRUE(opt.check);
}

TEST(Options, RejectsUnknownShortFlag) {
  const expt::Options opt = parse({"-x"});
  ASSERT_FALSE(opt.error.empty());
  EXPECT_NE(opt.error.find("'-x'"), std::string::npos);
}

TEST(Options, FirstUnknownFlagWins) {
  const expt::Options opt = parse({"--bad-one", "--bad-two"});
  EXPECT_NE(opt.error.find("--bad-one"), std::string::npos);
  EXPECT_EQ(opt.error.find("--bad-two"), std::string::npos);
}

TEST(Options, PositionalsAreNotFlags) {
  // Scenario names (and the `run` subcommand) pass through untouched.
  const expt::Options opt = parse({"run", "fig1", "platform_queueing"});
  EXPECT_TRUE(opt.error.empty());
}

TEST(Options, JValueTokenIsNotAPositionalOrError) {
  const expt::Options opt = parse({"-j", "8", "fig1"});
  EXPECT_TRUE(opt.error.empty());
  EXPECT_EQ(opt.jobs, 8);
  const expt::Options glued = parse({"-j8"});
  EXPECT_TRUE(glued.error.empty());
  EXPECT_EQ(glued.jobs, 8);
}

TEST(Options, MisspelledKnownFlagIsRejected) {
  const expt::Options opt = parse({"--scale", "0.5"});  // missing '='
  ASSERT_FALSE(opt.error.empty());
  EXPECT_NE(opt.error.find("'--scale'"), std::string::npos);
}

/// parse() must reject `args`, naming `flag` and quoting `value`.
void expect_rejected(std::vector<const char*> args, const std::string& flag,
                     const std::string& value) {
  const expt::Options opt = parse(args);
  ASSERT_FALSE(opt.error.empty()) << flag << " " << value;
  EXPECT_NE(opt.error.find(flag), std::string::npos) << opt.error;
  EXPECT_NE(opt.error.find("'" + value + "'"), std::string::npos) << opt.error;
}

TEST(Options, ScaleMustBeAFiniteNonNegativeNumber) {
  for (const std::string v :
       {"garbage", "0.5x", "", "-1", "1e999", "inf", "nan"}) {
    expect_rejected({("--scale=" + v).c_str()}, "--scale", v);
  }
  // Zero stays legal: it makes step I/O and compute vanish.
  const expt::Options zero = parse({"--scale=0"});
  EXPECT_TRUE(zero.error.empty());
  EXPECT_TRUE(zero.scale_given);
  EXPECT_DOUBLE_EQ(zero.scale, 0.0);
}

TEST(Options, SeedMustBeAnUnsigned64BitValue) {
  for (const std::string v :
       {"garbage", "7x", "", "-1", "18446744073709551616"}) {
    expect_rejected({("--seed=" + v).c_str()}, "--seed", v);
  }
  const expt::Options max = parse({"--seed=18446744073709551615"});
  EXPECT_TRUE(max.error.empty());
  EXPECT_EQ(max.seed, 18446744073709551615u);
}

TEST(Options, JobsMustBeAtLeastOne) {
  for (const std::string v : {"garbage", "4x", "", "-1", "0", "99999999999"}) {
    expect_rejected({("--jobs=" + v).c_str()}, "--jobs", v);
    expect_rejected({"-j", v.c_str()}, "-j", v);
    if (!v.empty()) expect_rejected({("-j" + v).c_str()}, "-j", v);
  }
  expect_rejected({"-j"}, "-j", "");  // value missing at the end
  EXPECT_EQ(parse({"--jobs=3"}).jobs, 3);
}

TEST(Options, RepeatMustBeAtLeastOne) {
  for (const std::string v : {"garbage", "2x", "", "-1", "0", "99999999999"}) {
    expect_rejected({("--repeat=" + v).c_str()}, "--repeat", v);
  }
  EXPECT_EQ(parse({"--repeat=3"}).repeat, 3);
}

}  // namespace
