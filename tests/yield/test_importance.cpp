// Mean-shift importance sampling: unbiasedness on analytic Gaussian tail
// events, variance advantage over brute force, and the shift search.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/qq.hpp"
#include "util/error.hpp"
#include "yield/importance.hpp"

namespace vsstat::yield {
namespace {

TEST(ImportanceSampling, RecoverAnalyticOneDimensionalTail) {
  // P(z > 4) = 1 - Phi(4) = 3.167e-5.
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[0] > 4.0;
  };
  ImportanceOptions opt;
  opt.samples = 20000;
  opt.seed = 5;
  const ImportanceResult r = importanceSample(fails, {4.0}, opt);

  const double truth = 1.0 - stats::normalCdf(4.0);
  EXPECT_NEAR(r.probability / truth, 1.0, 0.05);
  EXPECT_LT(r.relStdError, 0.03);
  EXPECT_GT(r.failingDraws, 5000);  // shifted onto the boundary: ~half fail
}

TEST(ImportanceSampling, RecoverLinearBoundaryInThreeDimensions) {
  // Fail when a.z > c with |a| = 1: P = 1 - Phi(c).
  const std::vector<double> a = {0.6, 0.0, 0.8};
  constexpr double kC = 3.5;
  const FailureIndicator fails = [&](const std::vector<double>& z) {
    return a[0] * z[0] + a[1] * z[1] + a[2] * z[2] > kC;
  };
  // Most probable failure point: c * a.
  const std::vector<double> shift = {kC * a[0], kC * a[1], kC * a[2]};
  ImportanceOptions opt;
  opt.samples = 20000;
  opt.seed = 6;
  const ImportanceResult r = importanceSample(fails, shift, opt);
  const double truth = 1.0 - stats::normalCdf(kC);
  EXPECT_NEAR(r.probability / truth, 1.0, 0.05);
}

TEST(ImportanceSampling, AgreesWithBruteForceOnCommonEvent) {
  // Moderate event (P ~ 0.159): IS and brute force must agree -- checks
  // the weights are an unbiased correction, not just a tail trick.
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[0] > 1.0;
  };
  ImportanceOptions opt;
  opt.samples = 40000;
  opt.seed = 7;
  const ImportanceResult is = importanceSample(fails, {1.0}, opt);
  const ImportanceResult bf = bruteForceProbability(fails, 1, opt);
  const double truth = 1.0 - stats::normalCdf(1.0);
  EXPECT_NEAR(is.probability / truth, 1.0, 0.03);
  EXPECT_NEAR(bf.probability / truth, 1.0, 0.03);
}

TEST(ImportanceSampling, BeatsBruteForceVarianceAtTheTail) {
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[0] > 4.5;
  };
  ImportanceOptions opt;
  opt.samples = 10000;
  opt.seed = 8;
  const ImportanceResult is = importanceSample(fails, {4.5}, opt);
  const ImportanceResult bf = bruteForceProbability(fails, 1, opt);
  // Brute force sees essentially no failures at P ~ 3.4e-6 with 1e4
  // samples; IS resolves it with a tight relative error.
  EXPECT_EQ(bf.failingDraws, 0);
  EXPECT_GT(is.failingDraws, 1000);
  EXPECT_LT(is.relStdError, 0.05);
  const double truth = 1.0 - stats::normalCdf(4.5);
  EXPECT_NEAR(is.probability / truth, 1.0, 0.10);
}

TEST(ImportanceSampling, MatchesRecordedEstimates) {
  // Recorded from the per-sample loop the campaign runner replaced: the
  // same child streams, reduced in the same order.
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[0] + 0.5 * z[1] > 3.0;
  };
  ImportanceOptions opt;
  opt.samples = 2000;
  opt.seed = 11;
  const ImportanceResult is = importanceSample(fails, {2.4, 1.2}, opt);
  EXPECT_EQ(is.probability, 0x1.d7f1a366202d1p-9);
  EXPECT_EQ(is.relStdError, 0x1.40f914ac878fbp-5);
  EXPECT_EQ(is.effectiveSamples, 0x1.eb8b5ac419a84p+8);
  EXPECT_EQ(is.failingDraws, 1020);

  opt.seed = 12;
  const ImportanceResult bf = bruteForceProbability(fails, 2, opt);
  EXPECT_EQ(bf.probability, 0x1.6872b020c49bap-8);
  EXPECT_EQ(bf.relStdError, 0x1.33f971d96d169p-2);
  EXPECT_EQ(bf.effectiveSamples, 11.0);
  EXPECT_EQ(bf.failingDraws, 11);
}

TEST(ImportanceSampling, ASampleFailureAbortsTheCall) {
  // A failing indicator evaluation is not a dropped draw: the estimate
  // would be biased, so the call throws the failure's class.
  const FailureIndicator fails = [](const std::vector<double>& z) -> bool {
    if (z[0] > 1.5) throw ConvergenceError("indicator solve", 7);
    return z[0] > 1.0;
  };
  ImportanceOptions opt;
  opt.samples = 200;
  opt.seed = 3;
  try {
    (void)importanceSample(fails, {2.0}, opt);
    ADD_FAILURE() << "importanceSample returned";
  } catch (const SampleFailure& e) {
    EXPECT_EQ(e.failureClass(), FailureClass::nonConvergence);
  }
  EXPECT_THROW((void)bruteForceProbability(fails, 1, opt), SampleFailure);
}

TEST(ImportanceSampling, ValidatesInputs) {
  const FailureIndicator fails = [](const std::vector<double>&) {
    return false;
  };
  EXPECT_THROW((void)importanceSample(fails, {}, {}), InvalidArgumentError);
  ImportanceOptions one;
  one.samples = 1;
  EXPECT_THROW((void)importanceSample(fails, {1.0}, one),
               InvalidArgumentError);
  EXPECT_THROW((void)bruteForceProbability(fails, 0, {}),
               InvalidArgumentError);
}

TEST(FindFailureShift, LocatesTheNearestBoundary) {
  // Failure region: z1 > 3 (axis-aligned).  The search must pick the +z1
  // axis and place the shift just short of radius 3.
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[1] > 3.0;
  };
  const std::vector<double> shift = findFailureShift(fails, 3);
  ASSERT_EQ(shift.size(), 3u);
  EXPECT_NEAR(shift[1], 0.9 * 3.0, 0.2);
  EXPECT_DOUBLE_EQ(shift[0], 0.0);
  EXPECT_DOUBLE_EQ(shift[2], 0.0);
}

TEST(FindFailureShift, UsesExtraDirectionsWhenTheyAreCloser) {
  // Failure region: z0 + z1 > 3 => boundary at radius 3/sqrt(2) ~ 2.12
  // along the diagonal, but at radius 3 along either axis.
  const FailureIndicator fails = [](const std::vector<double>& z) {
    return z[0] + z[1] > 3.0;
  };
  const std::vector<double> shift =
      findFailureShift(fails, 2, {{1.0, 1.0}});
  const double norm = std::hypot(shift[0], shift[1]);
  EXPECT_NEAR(norm, 0.9 * 3.0 / std::sqrt(2.0), 0.2);
  EXPECT_NEAR(shift[0], shift[1], 1e-9);
}

TEST(FindFailureShift, ThrowsWhenNothingFails) {
  const FailureIndicator fails = [](const std::vector<double>&) {
    return false;
  };
  EXPECT_THROW((void)findFailureShift(fails, 2), ConvergenceError);
}

}  // namespace
}  // namespace vsstat::yield
