// Tests for the argv helpers shared by the command-line front ends, above
// all RequireKnownFlags: a typo or a retired flag must fail loudly instead
// of starting a program without that setting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli_flags.h"
#include "common/error.h"

namespace grafics {
namespace {

const std::vector<std::string> kKnown = {"--port", "--model", "--threads"};

/// The message RequireKnownFlags throws for `args`, or "" when it accepts.
std::string Rejection(const std::vector<std::string>& args) {
  try {
    RequireKnownFlags(args, kKnown);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CliFlagsTest, RequireKnownFlagsAcceptsKnownFlagsWithValues) {
  EXPECT_EQ(Rejection({}), "");
  EXPECT_EQ(Rejection({"--port", "0"}), "");
  // Repeatable flags, and values that look like flags, are fine: only the
  // flag positions are checked.
  EXPECT_EQ(Rejection({"--model", "a=a.bin", "--model", "b=b.bin",
                       "--threads", "--port"}),
            "");
}

TEST(CliFlagsTest, RequireKnownFlagsNamesAnUnknownFlag) {
  // An unknown flag and a typo of a known one each fail, naming the
  // offender.
  EXPECT_NE(Rejection({"--port", "0", "--bogus-flag", "2"})
                .find("'--bogus-flag'"),
            std::string::npos);
  EXPECT_NE(Rejection({"--threads_", "4"}).find("'--threads_'"),
            std::string::npos);
  // A stray positional argument sits at a flag position too.
  EXPECT_NE(Rejection({"--port", "0", "extra.bin"}).find("'extra.bin'"),
            std::string::npos);
}

TEST(CliFlagsTest, RequireKnownFlagsRejectsAFlagWithoutValue) {
  const std::string message = Rejection({"--port", "0", "--threads"});
  EXPECT_NE(message.find("--threads"), std::string::npos) << message;
  EXPECT_NE(message.find("missing value"), std::string::npos) << message;
}

TEST(CliFlagsTest, FlagValueAndFlagValuesReadTheArguments) {
  const std::vector<std::string> args = {"--model", "a=a.bin", "--port", "7",
                                         "--model", "b=b.bin"};
  EXPECT_EQ(FlagValue(args, "--port", "0"), "7");
  EXPECT_EQ(FlagValue(args, "--threads", "1"), "1");
  EXPECT_EQ(FlagValues(args, "--model"),
            (std::vector<std::string>{"a=a.bin", "b=b.bin"}));
  EXPECT_THROW(FlagValues({"--model"}, "--model"), Error);
}

TEST(CliFlagsTest, ParseUnsignedRejectsJunkAndOverflow) {
  EXPECT_EQ(ParseUnsigned("4817", 65535, "--port"), 4817u);
  EXPECT_THROW(ParseUnsigned("80abc", 65535, "--port"), Error);
  EXPECT_THROW(ParseUnsigned("-1", 65535, "--port"), Error);
  EXPECT_THROW(ParseUnsigned("", 65535, "--port"), Error);
  EXPECT_THROW(ParseUnsigned("65536", 65535, "--port"), Error);
}

}  // namespace
}  // namespace grafics
