#include "util/rusage.hpp"

#include <gtest/gtest.h>

namespace vsstat::util {
namespace {

TEST(RunInProcess, MeasuresWallTime) {
  const CampaignUsage u = runInProcess([] {
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  });
  EXPECT_EQ(u.exitCode, 0);
  EXPECT_GE(u.wallSeconds, 0.0);
}

}  // namespace
}  // namespace vsstat::util
