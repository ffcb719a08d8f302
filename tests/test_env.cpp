// The shared EXACLIM_* knob parsing (common/env.hpp) and the knobs that
// route through it. EXACLIM_POOL, EXACLIM_CONV_FUSE, EXACLIM_CONV_SERIAL,
// EXACLIM_ALLOC_TRACK, EXACLIM_THREADS, EXACLIM_CONV_SHARDS and
// EXACLIM_POOL_BUCKETS seed process-wide state once, so their spellings
// are checked in fresh child processes (gtest's threadsafe death-test
// style re-executes this binary with the knob set).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/alloc_tracker.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "common/thread_pool.hpp"
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

TEST(EnvIntInRange, ChecksTheRangeAndNamesTheKnob) {
  ::unsetenv(kKnob);
  EXPECT_FALSE(EnvIntInRange(kKnob, 1, 40).has_value());
  for (const auto& [text, want] : {std::pair{"1", 1}, std::pair{"40", 40}}) {
    const testing::ScopedEnv env(kKnob, text);
    EXPECT_EQ(EnvIntInRange(kKnob, 1, 40), want) << text;
  }
  for (const char* bad : {"0", "41", "50", "abc", "4x", ""}) {
    const testing::ScopedEnv env(kKnob, bad);
    try {
      (void)EnvIntInRange(kKnob, 1, 40);
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

bool AllocTrackingOn() { return AllocTrackingEnabled(); }
bool AllocTrackingIsStrict() { return AllocTrackingStrict(); }

TEST(EnvKnobDeathTest, AllocTrackReadsLikeABooleanPlusStrict) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* off : {"", "0", "off", "false"}) {
    ExpectFlagInChild("EXACLIM_ALLOC_TRACK", off, &AllocTrackingOn, false);
  }
  for (const char* on : {"1", "on"}) {
    ExpectFlagInChild("EXACLIM_ALLOC_TRACK", on, &AllocTrackingOn, true);
    ExpectFlagInChild("EXACLIM_ALLOC_TRACK", on, &AllocTrackingIsStrict,
                      false);
  }
  ExpectFlagInChild("EXACLIM_ALLOC_TRACK", "strict", &AllocTrackingIsStrict,
                    true);
}

/// Expects `read()` to throw an Error naming `knob` in a child process
/// started with `knob`=`value`.
void ExpectRejectedInChild(const char* knob, const char* value,
                           void (*read)()) {
  const testing::ScopedEnv env(knob, value);
  EXPECT_EXIT(
      {
        try {
          read();
        } catch (const Error& e) {
          std::exit(std::string(e.what()).find(knob) != std::string::npos
                        ? 0
                        : 2);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "")
      << knob << "='" << value << "' should be rejected naming the knob";
}

void ReadThreads() { (void)ThreadPool::Global(); }
void ReadConvShards() { (void)ConvGradShards(64); }
void ReadPoolBuckets() { (void)PoolBucketCount(); }

TEST(EnvKnobDeathTest, NumericKnobsRejectMalformedValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"4x", "abc", "-1", ""}) {
    ExpectRejectedInChild("EXACLIM_THREADS", bad, &ReadThreads);
  }
  for (const char* bad : {"abc", "0", "8x"}) {
    ExpectRejectedInChild("EXACLIM_CONV_SHARDS", bad, &ReadConvShards);
  }
  for (const char* bad : {"50", "0", "abc"}) {
    ExpectRejectedInChild("EXACLIM_POOL_BUCKETS", bad, &ReadPoolBuckets);
  }
}

std::int64_t ThreadsRead() { return ThreadPool::Global().size(); }

TEST(EnvKnobDeathTest, NumericKnobsAcceptTheirRanges) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto expect_in_child = [](const char* knob, const char* value,
                                  std::int64_t (*read)(), std::int64_t want) {
    const testing::ScopedEnv env(knob, value);
    EXPECT_EXIT(std::exit(read() == want ? 0 : 1),
                ::testing::ExitedWithCode(0), "")
        << knob << "='" << value << "' should read " << want;
  };
  expect_in_child("EXACLIM_CONV_SHARDS", "3",
                  [] { return ConvGradShards(64); }, 3);
  expect_in_child("EXACLIM_POOL_BUCKETS", "1",
                  [] { return std::int64_t{PoolBucketCount()}; }, 1);
  expect_in_child("EXACLIM_POOL_BUCKETS", "40",
                  [] { return std::int64_t{PoolBucketCount()}; }, 40);
  // The pool's worker count excludes the calling thread.
  expect_in_child("EXACLIM_THREADS", "2", &ThreadsRead, 1);
}

}  // namespace
}  // namespace exaclim
