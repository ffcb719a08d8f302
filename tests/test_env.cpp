// The shared EXACLIM_* knob parsing (common/env.hpp) and the boolean
// knobs that route through it. EXACLIM_POOL, EXACLIM_CONV_FUSE and
// EXACLIM_CONV_SERIAL seed process-wide flags once, so their spellings
// are checked in fresh child processes (gtest's threadsafe death-test
// style re-executes this binary with the knob set).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "nn/conv_engine.hpp"
#include "scoped_env.hpp"

namespace exaclim {
namespace {

constexpr const char* kKnob = "EXACLIM_TEST_ENV_KNOB";

TEST(EnvFlag, UnsetTakesTheFallback) {
  ::unsetenv(kKnob);
  EXPECT_TRUE(EnvFlag(kKnob, true));
  EXPECT_FALSE(EnvFlag(kKnob, false));
}

TEST(EnvFlag, OffSpellingsAndEverythingElseOn) {
  for (const char* off : {"", "0", "off", "false"}) {
    const testing::ScopedEnv env(kKnob, off);
    EXPECT_FALSE(EnvFlag(kKnob, true)) << "'" << off << "'";
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    const testing::ScopedEnv env(kKnob, on);
    EXPECT_TRUE(EnvFlag(kKnob, false)) << "'" << on << "'";
  }
}

TEST(EnvNonNegativeInt, ParsesTheWholeString) {
  ::unsetenv(kKnob);
  EXPECT_FALSE(EnvNonNegativeInt(kKnob).has_value());
  {
    const testing::ScopedEnv env(kKnob, "4194304");
    EXPECT_EQ(EnvNonNegativeInt(kKnob), 4194304);
  }
  for (const char* bad : {"4M", "abc", "", "-1", "+1", "1.5", " 1", "1 ",
                          "99999999999999999999"}) {
    const testing::ScopedEnv env(kKnob, bad);
    try {
      (void)EnvNonNegativeInt(kKnob);
      ADD_FAILURE() << "'" << bad << "' did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(kKnob), std::string::npos)
          << e.what();
    }
  }
}

TEST(EnvNonNegativeNumber, ParsesTheWholeString) {
  ::unsetenv(kKnob);
  EXPECT_FALSE(EnvNonNegativeNumber(kKnob).has_value());
  for (const auto& [text, want] :
       {std::pair{"5", 5.0}, std::pair{"2.5", 2.5}, std::pair{".25", 0.25},
        std::pair{"0", 0.0}, std::pair{"1e1", 10.0}}) {
    const testing::ScopedEnv env(kKnob, text);
    EXPECT_DOUBLE_EQ(EnvNonNegativeNumber(kKnob).value(), want) << text;
  }
  for (const char* bad : {"5s", "abc", "", "-1", "+1", "inf", "nan", " 5",
                          "5 ", "1e999"}) {
    const testing::ScopedEnv env(kKnob, bad);
    EXPECT_THROW((void)EnvNonNegativeNumber(kKnob), Error) << "'" << bad
                                                           << "'";
  }
}

/// Expects `flag()` to read `want` in a child process started with
/// `knob`=`value`.
void ExpectFlagInChild(const char* knob, const char* value, bool (*flag)(),
                       bool want) {
  const testing::ScopedEnv env(knob, value);
  EXPECT_EXIT(std::exit(flag() == want ? 0 : 1), ::testing::ExitedWithCode(0),
              "")
      << knob << "='" << value << "' should read " << want;
}

TEST(EnvKnobDeathTest, BooleanKnobsReadAlike) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* off : {"off", "false"}) {
    ExpectFlagInChild("EXACLIM_POOL", off, &PoolEnabled, false);
    ExpectFlagInChild("EXACLIM_CONV_FUSE", off, &ConvFusionEnabled, false);
    // EXACLIM_CONV_SERIAL=off leaves the batch-parallel walk on.
    ExpectFlagInChild("EXACLIM_CONV_SERIAL", off, &ConvBatchParallelEnabled,
                      true);
  }
  ExpectFlagInChild("EXACLIM_POOL", "on", &PoolEnabled, true);
  ExpectFlagInChild("EXACLIM_CONV_FUSE", "1", &ConvFusionEnabled, true);
  ExpectFlagInChild("EXACLIM_CONV_SERIAL", "1", &ConvBatchParallelEnabled,
                    false);
}

}  // namespace
}  // namespace exaclim
