// Canonical SSTA calculus: series composition, Clark's max
// against closed forms and Monte Carlo, exceedance probability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "stats/rng.hpp"
#include "timing/ssta.hpp"
#include "util/error.hpp"

namespace vsstat::timing {
namespace {

CanonicalDelay make(double mean, std::vector<double> global, double local) {
  CanonicalDelay d;
  d.mean = mean;
  d.global = std::move(global);
  d.local = local;
  return d;
}

TEST(Ssta, VarianceCombinesGlobalAndLocal) {
  const CanonicalDelay d = make(10.0, {3.0, 4.0}, 12.0);
  EXPECT_DOUBLE_EQ(d.variance(), 9.0 + 16.0 + 144.0);
  EXPECT_DOUBLE_EQ(d.sigma(), 13.0);
  EXPECT_DOUBLE_EQ(d.quantileSigma(3.0), 10.0 + 39.0);
}

TEST(Ssta, AddSeriesAddsMeansAndGlobalsRssesLocals) {
  const CanonicalDelay a = make(5.0, {1.0, 2.0}, 3.0);
  const CanonicalDelay b = make(7.0, {0.5, -1.0}, 4.0);
  const CanonicalDelay s = addSeries(a, b);
  EXPECT_DOUBLE_EQ(s.mean, 12.0);
  EXPECT_DOUBLE_EQ(s.global[0], 1.5);
  EXPECT_DOUBLE_EQ(s.global[1], 1.0);
  EXPECT_DOUBLE_EQ(s.local, 5.0);

  EXPECT_THROW((void)addSeries(a, make(0, {1.0}, 0)), InvalidArgumentError);
}

TEST(Ssta, MaxOfIndependentEqualGaussiansMatchesClosedForm) {
  // For X, Y ~ N(m, s^2) independent: E[max] = m + s/sqrt(pi),
  // Var[max] = s^2 (1 - 1/pi).
  const double m = 100.0;
  const double s = 7.0;
  const CanonicalDelay a = make(m, {0.0}, s);
  const CanonicalDelay b = make(m, {0.0}, s);
  const CanonicalDelay mx = statisticalMax(a, b);
  EXPECT_NEAR(mx.mean, m + s / std::sqrt(std::numbers::pi), 1e-9);
  EXPECT_NEAR(mx.variance(), s * s * (1.0 - 1.0 / std::numbers::pi), 1e-9);
}

TEST(Ssta, MaxOfPerfectlyCorrelatedIsTheLargerMean) {
  const CanonicalDelay a = make(10.0, {2.0}, 0.0);
  const CanonicalDelay b = make(9.0, {2.0}, 0.0);
  const CanonicalDelay mx = statisticalMax(a, b);
  EXPECT_DOUBLE_EQ(mx.mean, 10.0);
  EXPECT_DOUBLE_EQ(mx.global[0], 2.0);
}

TEST(Ssta, MaxDominatedByOneInputReturnsIt) {
  // b is far below a: max(a, b) ~ a.
  const CanonicalDelay a = make(100.0, {1.0}, 1.0);
  const CanonicalDelay b = make(50.0, {0.5}, 1.0);
  const CanonicalDelay mx = statisticalMax(a, b);
  EXPECT_NEAR(mx.mean, a.mean, 1e-6);
  EXPECT_NEAR(mx.sigma(), a.sigma(), 1e-4);
  EXPECT_NEAR(mx.global[0], a.global[0], 1e-6);
}

TEST(Ssta, MaxMatchesMonteCarloUnderSharedSources) {
  // Two arrivals sharing one global source plus independent locals.
  const CanonicalDelay a = make(20.0, {2.0}, 1.5);
  const CanonicalDelay b = make(21.0, {1.0}, 2.5);
  const CanonicalDelay mx = statisticalMax(a, b);

  stats::Rng rng(99);
  const int n = 200000;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    const double va = a.mean + a.global[0] * x + a.local * rng.normal();
    const double vb = b.mean + b.global[0] * x + b.local * rng.normal();
    const double m = std::max(va, vb);
    sum += m;
    sumSq += m * m;
  }
  const double mcMean = sum / n;
  const double mcVar = sumSq / n - mcMean * mcMean;
  EXPECT_NEAR(mx.mean, mcMean, 0.01);
  EXPECT_NEAR(mx.variance(), mcVar, 0.05 * mcVar);
}

TEST(Ssta, MaxVarianceMatchedWhenGlobalsOvershoot) {
  // Anti-correlated inputs: the tightness-weighted global mix can exceed
  // Clark's matched variance; the implementation must rescale, never
  // produce a negative local variance.
  const CanonicalDelay a = make(10.0, {3.0}, 0.1);
  const CanonicalDelay b = make(10.0, {-3.0}, 0.1);
  const CanonicalDelay mx = statisticalMax(a, b);
  EXPECT_GE(mx.local, 0.0);
  EXPECT_GT(mx.mean, 10.0);  // max of anti-correlated spreads upward
  // Moment consistency against MC.
  stats::Rng rng(7);
  double sum = 0.0, sumSq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    const double va = 10.0 + 3.0 * x + 0.1 * rng.normal();
    const double vb = 10.0 - 3.0 * x + 0.1 * rng.normal();
    const double m = std::max(va, vb);
    sum += m;
    sumSq += m * m;
  }
  const double mcMean = sum / n;
  EXPECT_NEAR(mx.mean, mcMean, 0.02);
  EXPECT_NEAR(mx.variance(), sumSq / n - mcMean * mcMean,
              0.05 * mx.variance() + 0.01);
}

TEST(Ssta, ExceedanceProbabilityMatchesAnalyticCases) {
  // Independent equal-sigma: P[a > b] = Phi((ma - mb)/(s*sqrt(2))).
  const CanonicalDelay a = make(1.0, {0.0}, 1.0);
  const CanonicalDelay b = make(0.0, {0.0}, 1.0);
  EXPECT_NEAR(exceedanceProbability(a, b), 0.7602, 5e-4);
  EXPECT_NEAR(exceedanceProbability(b, a), 1.0 - 0.7602, 5e-4);
  // Equal canonical forms are still DISTINCT arrivals: the local terms
  // are independent unit Gaussians, so each wins half the time.
  EXPECT_DOUBLE_EQ(exceedanceProbability(a, a), 0.5);
  // Fully shared (purely global) identical arrivals are the degenerate
  // tie: strict excess never happens.
  const CanonicalDelay g = make(2.0, {1.5}, 0.0);
  EXPECT_DOUBLE_EQ(exceedanceProbability(g, g), 0.0);
}

TEST(Ssta, ChainCompositionMatchesAnalyticMoments) {
  // K identical stages sharing globals: mean K*d0, global K*g (coherent),
  // local sqrt(K)*l (incoherent).
  const CanonicalDelay stage = make(8.0, {0.4, -0.2}, 0.3);
  CanonicalDelay path = stage;
  for (int k = 1; k < 6; ++k) path = addSeries(path, stage);
  EXPECT_NEAR(path.mean, 48.0, 1e-12);
  EXPECT_NEAR(path.global[0], 2.4, 1e-12);
  EXPECT_NEAR(path.global[1], -1.2, 1e-12);
  EXPECT_NEAR(path.local, 0.3 * std::sqrt(6.0), 1e-12);
}

}  // namespace
}  // namespace vsstat::timing
