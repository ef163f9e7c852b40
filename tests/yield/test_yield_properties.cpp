// Parameterized yield properties: the empirical yield of Gaussian Monte
// Carlo samples against the analytic normal probability, across a grid of
// (mean, sigma, spec window) cases.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "stats/qq.hpp"
#include "stats/rng.hpp"
#include "yield/parametric.hpp"

namespace vsstat::yield {
namespace {

struct YieldCase {
  double mean;
  double sigma;
  double lower;  ///< in sigmas around the mean
  double upper;
};

class GaussianVsEmpirical : public ::testing::TestWithParam<YieldCase> {};

TEST_P(GaussianVsEmpirical, AgreeWithinSamplingError) {
  const YieldCase& p = GetParam();
  const SpecLimit spec{p.mean + p.lower * p.sigma,
                       p.mean + p.upper * p.sigma};
  const double analytic =
      stats::normalCdf(p.upper) - stats::normalCdf(p.lower);

  stats::Rng rng(0xABCDEF);
  std::vector<double> samples;
  samples.reserve(60000);
  for (int i = 0; i < 60000; ++i)
    samples.push_back(rng.normal(p.mean, p.sigma));
  const YieldEstimate e = yieldOfSamples(samples, spec, 2.6);

  // Binomial sampling error at n = 60000 stays below ~0.6% absolute.
  EXPECT_NEAR(e.yield, analytic, 0.006);

  // And the Wilson interval must cover the analytic value.
  EXPECT_GE(analytic, e.lower - 1e-12);
  EXPECT_LE(analytic, e.upper + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    WindowGrid, GaussianVsEmpirical,
    ::testing::Values(YieldCase{0.0, 1.0, -1.0, 1.0},
                      YieldCase{0.0, 1.0, -2.0, 2.0},
                      YieldCase{0.0, 1.0, -3.0, 3.0},
                      YieldCase{5.0, 0.5, -1.5, 2.5},
                      YieldCase{-2.0, 3.0, -0.5, 0.5},
                      YieldCase{10.0, 2.0, -4.0, 0.0}),
    [](const ::testing::TestParamInfo<YieldCase>& i) {
      return "case" + std::to_string(i.index);
    });

}  // namespace
}  // namespace vsstat::yield
