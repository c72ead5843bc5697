// util/parse: the strict unsigned parser shared by the fault-plan grammar,
// the policy labels' `k`, and the command-line tools' integer flags.

#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace randrank {
namespace {

TEST(ParseU64Test, AcceptsPlainDecimalsUpToTheMaximum) {
  uint64_t v = 7;
  ASSERT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(ParseU64("007", &v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseU64Test, RejectsAnythingButDigitsAndLeavesTheOutputAlone) {
  uint64_t v = 42;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "1.0",
                          "12a", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << bad;
    EXPECT_EQ(v, 42u) << bad;
  }
}

TEST(ParseU64Test, EnforcesTheRange) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64("65535", &v, 0, 65535));
  EXPECT_EQ(v, 65535u);
  EXPECT_FALSE(ParseU64("70000", &v, 0, 65535));  // not cut to 16 bits
  EXPECT_FALSE(ParseU64("0", &v, 1, 10));
  EXPECT_TRUE(ParseU64("1", &v, 1, 10));
  EXPECT_TRUE(ParseU64("10", &v, 1, 10));
  EXPECT_FALSE(ParseU64("11", &v, 1, 10));
  EXPECT_EQ(v, 10u);
}

}  // namespace
}  // namespace randrank
