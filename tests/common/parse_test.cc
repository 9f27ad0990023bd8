#include "src/common/parse.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "src/common/thread_pool.h"

namespace declust {
namespace {

TEST(ParseInt64Test, AcceptsPlainIntegers) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("+13"), 13);
  EXPECT_EQ(*ParseInt64("9223372036854775807"),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(*ParseInt64("-9223372036854775808"),
            std::numeric_limits<int64_t>::min());
}

TEST(ParseInt64Test, RejectsGarbage) {
  // The atoi family maps all of these to 0 silently — the whole point of
  // the validated parser is that they fail loudly instead.
  for (const char* bad : {"", "x", "1x", "x1", "1 ", " 1", "1.5", "0x10",
                          "--3", "1,2", "nan", "inf"}) {
    EXPECT_FALSE(ParseInt64(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseInt64Test, RejectsOverflow) {
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());
  EXPECT_FALSE(ParseInt64("123456789012345678901234567890").ok());
}

TEST(ParseInt64Test, EnforcesCallerRange) {
  EXPECT_EQ(*ParseInt64("5", 1, 10), 5);
  EXPECT_EQ(*ParseInt64("1", 1, 10), 1);
  EXPECT_EQ(*ParseInt64("10", 1, 10), 10);
  EXPECT_FALSE(ParseInt64("0", 1, 10).ok());
  EXPECT_FALSE(ParseInt64("11", 1, 10).ok());
  const auto st = ParseInt64("11", 1, 10).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("'11'"), std::string::npos);
  EXPECT_NE(st.message().find("[1, 10]"), std::string::npos);
}

TEST(ParseIntTest, NarrowsToInt) {
  EXPECT_EQ(*ParseInt("123", 0, 1000), 123);
  EXPECT_FALSE(ParseInt("2147483648", 0,
                        std::numeric_limits<int>::max()).ok());
}

TEST(ParseDoubleTest, AcceptsNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.5", 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3", 0, 1e6), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.5", -10, 10), -2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("0", 0, 1), 0.0);
}

TEST(ParseDoubleTest, RejectsGarbageAndNonFinite) {
  for (const char* bad : {"", "x", "1.5x", "1.5 ", "nan", "inf", "-inf",
                          "1e400", "0.5,0.6"}) {
    EXPECT_FALSE(ParseDouble(bad, -1e300, 1e300).ok()) << "'" << bad << "'";
  }
}

TEST(ParseDoubleTest, EnforcesCallerRange) {
  EXPECT_FALSE(ParseDouble("1.01", 0, 1).ok());
  EXPECT_FALSE(ParseDouble("-0.01", 0, 1).ok());
  EXPECT_TRUE(ParseDouble("1", 0, 1).ok());
}

TEST(ParseTimeMsTest, SuffixSelectsTheUnit) {
  EXPECT_DOUBLE_EQ(*ParseTimeMs("5", "t", "g"), 5000.0);  // bare = seconds
  EXPECT_DOUBLE_EQ(*ParseTimeMs("5s", "t", "g"), 5000.0);
  EXPECT_DOUBLE_EQ(*ParseTimeMs("250ms", "t", "g"), 250.0);
  EXPECT_DOUBLE_EQ(*ParseTimeMs("1.5s", "t", "g"), 1500.0);
  EXPECT_DOUBLE_EQ(*ParseTimeMs("0ms", "t", "g"), 0.0);
}

TEST(ParseTimeMsTest, RejectsGarbageNegativeAndNonFinite) {
  // "1e306" seconds is a finite double but not a finite millisecond count.
  for (const char* bad : {"", "s", "ms", "5q", "5 s", "-1s", "-0.5ms", "nan",
                          "inf", "infs", "1e400", "1e400ms", "1e306"}) {
    const auto r = ParseTimeMs(bad, "t", "faults");
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_TRUE(r.status().IsInvalidArgument()) << "'" << bad << "'";
  }
  EXPECT_TRUE(ParseTimeMs("1e306ms", "t", "faults").ok());
  // Each grammar keeps its own error prefix.
  EXPECT_EQ(ParseTimeMs("nan", "t", "faults").status().message(),
            "faults: bad t value 'nan'");
  EXPECT_EQ(ParseTimeMs("xs", "every", "resize").status().message(),
            "resize: bad every value 'x'");
}

// DECLUST_JOBS=abc used to atoi to 0 and silently run serial; it must now
// terminate with exit code 2 and a usage message.
TEST(ParseDeathTest, MalformedDeclustJobsExits2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("DECLUST_JOBS", "abc", 1);
        ThreadPool::ResolveJobs(0);
      },
      testing::ExitedWithCode(2), "invalid DECLUST_JOBS=abc");
  EXPECT_EXIT(
      {
        setenv("DECLUST_JOBS", "-2", 1);
        ThreadPool::ResolveJobs(0);
      },
      testing::ExitedWithCode(2), "invalid DECLUST_JOBS=-2");
}

TEST(ParseDeathTest, ValidDeclustJobsStillResolves) {
  setenv("DECLUST_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(0), 3);
  setenv("DECLUST_JOBS", "0", 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(0), 1);  // 0 = default = serial
  unsetenv("DECLUST_JOBS");
  EXPECT_EQ(ThreadPool::ResolveJobs(0), 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(5), 5);  // explicit request wins
}

}  // namespace
}  // namespace declust
