// Die-level variation composition and the Eq. (1) variance decomposition.
#include <gtest/gtest.h>

#include <cmath>

#include "models/die_variation.hpp"
#include "util/error.hpp"

namespace vsstat::models {
namespace {

const DeviceGeometry kGeom = geometryNm(600, 40);

PelgromAlphas localAlphas() {
  PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.71;
  a.aWeff = 3.71;
  a.aMu = 944.0;
  a.aCinv = 0.30;
  return a;
}

TEST(DieSampler, RejectsBadConstruction) {
  EXPECT_THROW(DieSampler(DieVariationSpec{}, 0), InvalidArgumentError);
}

TEST(DieSampler, GlobalComponentIsSharedAcrossTheDie) {
  DieVariationSpec spec;   // local alphas all zero
  spec.global.sVt0 = 0.02;
  spec.global.sMu = 1e-4;
  DieSampler sampler(spec, 4);

  stats::Rng rng(11);
  sampler.newDie(rng);
  const VariationDelta d0 = sampler.deltaFor(0, kGeom, rng);
  const VariationDelta d3 = sampler.deltaFor(3, kGeom, rng);
  EXPECT_DOUBLE_EQ(d0.dVt0, d3.dVt0);
  EXPECT_DOUBLE_EQ(d0.dMu, d3.dMu);
  EXPECT_DOUBLE_EQ(d0.dVt0, sampler.globalDelta().dVt0);

  // A new die redraws the shared shift.
  sampler.newDie(rng);
  EXPECT_NE(sampler.deltaFor(0, kGeom, rng).dVt0, d0.dVt0);
}

TEST(DieSampler, VarianceAddsAcrossComponents) {
  // Var[dVt0] over many dies/devices must equal local^2 + global^2 (the
  // components are independent by construction).
  DieVariationSpec spec;
  spec.local = localAlphas();
  spec.global.sVt0 = 0.015;

  DieSampler sampler(spec, 16);
  const double sLocal = sigmasFor(spec.local, kGeom).sVt0;
  const double expectedVar = sLocal * sLocal + 0.015 * 0.015;

  stats::Rng rng(123);
  double sum = 0.0, sumSq = 0.0;
  int n = 0;
  for (int die = 0; die < 3000; ++die) {
    sampler.newDie(rng);
    for (std::size_t dev = 0; dev < sampler.deviceCount(); ++dev) {
      const double v = sampler.deltaFor(dev, kGeom, rng).dVt0;
      sum += v;
      sumSq += v * v;
      ++n;
    }
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  // The die-shared draws shrink the effective sample count; allow 5%.
  EXPECT_NEAR(var / expectedVar, 1.0, 0.05);
}

TEST(DieSampler, DeviceIndexIsValidated) {
  DieVariationSpec spec;
  DieSampler sampler(spec, 2);
  stats::Rng rng(1);
  sampler.newDie(rng);
  EXPECT_THROW((void)sampler.deltaFor(2, kGeom, rng), InvalidArgumentError);
}

TEST(DecomposeVariance, RequiresTwoDiesWithTwoDevices) {
  EXPECT_THROW((void)decomposeVariance({}), InvalidArgumentError);
  EXPECT_THROW((void)decomposeVariance({{1.0, 2.0}}), InvalidArgumentError);
  EXPECT_THROW((void)decomposeVariance({{1.0, 2.0}, {1.0}}),
               InvalidArgumentError);
}

TEST(DecomposeVariance, RecoversPlantedComponents) {
  // Synthetic: die mean ~ N(0, sb), devices ~ N(mean, sw).
  constexpr double kSw = 0.5;
  constexpr double kSb = 0.3;
  stats::Rng rng(2024);
  std::vector<std::vector<double>> dies;
  for (int d = 0; d < 1500; ++d) {
    const double mean = rng.normal(0.0, kSb);
    std::vector<double> die;
    for (int i = 0; i < 50; ++i) die.push_back(rng.normal(mean, kSw));
    dies.push_back(std::move(die));
  }
  const VarianceDecomposition v = decomposeVariance(dies);
  // The inter-die term is a difference of two estimates, so its relative
  // noise is ~sqrt(2/dies) amplified by sw^2/sb^2; 1500 dies puts 3 sigma
  // near 12%.
  EXPECT_NEAR(v.withinDie, kSw * kSw, 0.02 * kSw * kSw);
  EXPECT_NEAR(v.interDie, kSb * kSb, 0.12 * kSb * kSb);
  EXPECT_NEAR(v.total, v.withinDie + v.interDie, 0.05 * v.total);
}

TEST(DecomposeVariance, InterDieClampsAtZeroWithoutGlobalComponent) {
  stats::Rng rng(9);
  std::vector<std::vector<double>> dies;
  for (int d = 0; d < 50; ++d) {
    std::vector<double> die;
    for (int i = 0; i < 20; ++i) die.push_back(rng.normal(0.0, 1.0));
    dies.push_back(std::move(die));
  }
  const VarianceDecomposition v = decomposeVariance(dies);
  // No planted inter-die component: the estimate is sampling noise near 0.
  EXPECT_LT(v.interDie, 0.05 * v.total);
  EXPECT_GE(v.interDie, 0.0);
}

TEST(DieVariationEq1, RoundTripThroughTheSampler) {
  // Full Eq. (1) workflow on dVt0: sample dies, decompose, compare with
  // the planted within/inter components.
  DieVariationSpec spec;
  spec.local = localAlphas();
  spec.global.sVt0 = 0.012;

  DieSampler sampler(spec, 20);
  const double sLocal = sigmasFor(spec.local, kGeom).sVt0;

  stats::Rng rng(31415);
  std::vector<std::vector<double>> dies;
  for (int d = 0; d < 500; ++d) {
    sampler.newDie(rng);
    std::vector<double> die;
    for (std::size_t dev = 0; dev < sampler.deviceCount(); ++dev)
      die.push_back(sampler.deltaFor(dev, kGeom, rng).dVt0);
    dies.push_back(std::move(die));
  }
  const VarianceDecomposition v = decomposeVariance(dies);
  EXPECT_NEAR(std::sqrt(v.withinDie), sLocal, 0.05 * sLocal);
  EXPECT_NEAR(std::sqrt(v.interDie), spec.global.sVt0,
              0.15 * spec.global.sVt0);
}

}  // namespace
}  // namespace vsstat::models
