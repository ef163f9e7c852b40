// Parametric yield arithmetic: spec windows, Wilson intervals, empirical
// yield of samples.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "yield/parametric.hpp"

namespace vsstat::yield {
namespace {

TEST(SpecLimit, PassLogicCoversAllWindowShapes) {
  const SpecLimit open{};
  EXPECT_TRUE(open.passes(-1e30));
  EXPECT_TRUE(open.passes(1e30));

  const SpecLimit lowerOnly{0.0, std::nullopt};
  EXPECT_TRUE(lowerOnly.passes(0.0));
  EXPECT_FALSE(lowerOnly.passes(-1e-12));

  const SpecLimit band{-1.0, 1.0};
  EXPECT_TRUE(band.passes(0.5));
  EXPECT_FALSE(band.passes(1.5));
  EXPECT_FALSE(band.passes(-1.5));
}

TEST(WilsonInterval, KnownValues) {
  // 95% Wilson interval for 90/100: approximately [0.825, 0.944].
  const YieldEstimate e = yieldWithConfidence(90, 100);
  EXPECT_DOUBLE_EQ(e.yield, 0.9);
  EXPECT_NEAR(e.lower, 0.825, 0.005);
  EXPECT_NEAR(e.upper, 0.944, 0.005);

  // Zero successes still gives a positive upper bound (rule-of-three-ish).
  const YieldEstimate zero = yieldWithConfidence(0, 100);
  EXPECT_DOUBLE_EQ(zero.yield, 0.0);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.01);
  EXPECT_LT(zero.upper, 0.06);

  // All successes clamp the upper bound at 1.
  const YieldEstimate all = yieldWithConfidence(50, 50);
  EXPECT_DOUBLE_EQ(all.upper, 1.0);
  EXPECT_LT(all.lower, 1.0);
}

TEST(WilsonInterval, ValidatesInputs) {
  EXPECT_THROW((void)yieldWithConfidence(1, 0), InvalidArgumentError);
  EXPECT_THROW((void)yieldWithConfidence(-1, 10), InvalidArgumentError);
  EXPECT_THROW((void)yieldWithConfidence(11, 10), InvalidArgumentError);
  EXPECT_THROW((void)yieldWithConfidence(5, 10, 0.0), InvalidArgumentError);
}

TEST(YieldOfSamples, CombinesCountingAndInterval) {
  std::vector<double> s(200, 0.5);
  s[0] = 2.0;  // one failure
  const YieldEstimate e = yieldOfSamples(s, {std::nullopt, 1.0});
  EXPECT_DOUBLE_EQ(e.yield, 199.0 / 200.0);
  EXPECT_EQ(e.passed, 199);
  EXPECT_EQ(e.total, 200);
  EXPECT_LT(e.lower, e.yield);
  EXPECT_GT(e.upper, e.yield);
}

}  // namespace
}  // namespace vsstat::yield
