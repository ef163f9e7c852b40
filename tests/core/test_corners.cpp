// Statistical corners: delta geometry, predicted-vs-simulated Idsat
// shifts, and circuit-level delay ordering across corners.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/benchmarks.hpp"
#include "core/corners.hpp"
#include "measure/delay.hpp"
#include "models/vs_model.hpp"

namespace vsstat::core {
namespace {

using models::DeviceType;

const StatisticalVsKit& kit() {
  static const StatisticalVsKit k = [] {
    CharacterizeOptions opt;
    opt.analyticGoldenVariance = true;
    return StatisticalVsKit::characterize(extract::GoldenKit::default40nm(),
                                          opt);
  }();
  return k;
}

TEST(Corners, TtIsExactlyNominal) {
  const StatisticalCorners corners(kit());
  for (const auto type : {DeviceType::Nmos, DeviceType::Pmos}) {
    const models::VariationDelta& d = corners.delta(Corner::TT, type);
    EXPECT_EQ(d.dVt0, 0.0);
    EXPECT_EQ(d.dLeff, 0.0);
    EXPECT_EQ(d.dMu, 0.0);
    EXPECT_DOUBLE_EQ(corners.predictedIdsatRatio(Corner::TT, type), 1.0);
  }
}

TEST(Corners, FastSlowAreMirrored) {
  const StatisticalCorners corners(kit());
  const auto& ff = corners.delta(Corner::FF, DeviceType::Nmos);
  const auto& ss = corners.delta(Corner::SS, DeviceType::Nmos);
  EXPECT_DOUBLE_EQ(ff.dVt0, -ss.dVt0);
  EXPECT_DOUBLE_EQ(ff.dLeff, -ss.dLeff);
  EXPECT_DOUBLE_EQ(ff.dMu, -ss.dMu);

  // Mixed corners pick the polarity-matching side.
  EXPECT_DOUBLE_EQ(corners.delta(Corner::FS, DeviceType::Nmos).dVt0,
                   ff.dVt0);
  EXPECT_DOUBLE_EQ(corners.delta(Corner::FS, DeviceType::Pmos).dVt0,
                   corners.delta(Corner::SS, DeviceType::Pmos).dVt0);
  EXPECT_DOUBLE_EQ(corners.delta(Corner::SF, DeviceType::Nmos).dVt0,
                   ss.dVt0);
}

TEST(Corners, FastCornerLowersVt0AndRaisesMobility) {
  // Faster NMOS: lower threshold, higher mobility (the Idsat gradient
  // signs), at a sensible magnitude for 3 sigma on a 300/40 device.
  const StatisticalCorners corners(kit());
  const auto& ff = corners.delta(Corner::FF, DeviceType::Nmos);
  EXPECT_LT(ff.dVt0, 0.0);
  EXPECT_GT(ff.dMu, 0.0);
  EXPECT_GT(-ff.dVt0, 0.005);  // > 5 mV at 3 sigma
  EXPECT_LT(-ff.dVt0, 0.120);
}

TEST(Corners, SimulatedIdsatMatchesFirstOrderPrediction) {
  const StatisticalCorners corners(kit());
  const models::DeviceGeometry geom = kCornerReferenceGeometry;
  for (const auto type : {DeviceType::Nmos, DeviceType::Pmos}) {
    const models::VsModel nominal(kit().nominal(type));
    const double idNom = nominal.drainCurrent(geom, 0.9, 0.9);
    for (const Corner c : {Corner::FF, Corner::SS}) {
      const models::VsModel skewed(
          models::applyToVs(kit().nominal(type), corners.delta(c, type)));
      const models::DeviceGeometry g =
          models::applyGeometry(geom, corners.delta(c, type));
      const double ratio = skewed.drainCurrent(g, 0.9, 0.9) / idNom;
      const double predicted = corners.predictedIdsatRatio(c, type);
      // First-order prediction vs the full nonlinear model at 3 sigma.
      EXPECT_NEAR(ratio, predicted, 0.05)
          << toString(c) << " " << models::toString(type);
    }
  }
}

TEST(Corners, InverterDelayOrdersAcrossCorners) {
  const StatisticalCorners corners(kit());
  const auto delayAt = [&](Corner c) {
    auto provider = corners.makeProvider(c);
    circuits::GateFo3Bench bench = circuits::buildInvFo3(
        *provider, circuits::CellSizing{}, circuits::StimulusSpec{});
    return measure::measureGateDelays(bench).average();
  };
  const double ff = delayAt(Corner::FF);
  const double tt = delayAt(Corner::TT);
  const double ss = delayAt(Corner::SS);
  EXPECT_LT(ff, tt);
  EXPECT_LT(tt, ss);
  // 3-sigma corners should move delay by a visible margin (> 5%).
  EXPECT_LT(ff, 0.95 * tt);
  EXPECT_GT(ss, 1.05 * tt);
}

TEST(Corners, MixedCornersSkewTheTransitionAsymmetrically) {
  // FS (fast N, slow P): falling output (NMOS pull-down) speeds up while
  // rising output (PMOS pull-up) slows down; SF mirrors it.
  const StatisticalCorners corners(kit());
  const auto delays = [&](Corner c) {
    auto provider = corners.makeProvider(c);
    circuits::GateFo3Bench bench = circuits::buildInvFo3(
        *provider, circuits::CellSizing{}, circuits::StimulusSpec{});
    return measure::measureGateDelays(bench);
  };
  const auto tt = delays(Corner::TT);
  const auto fs = delays(Corner::FS);
  const auto sf = delays(Corner::SF);
  EXPECT_LT(fs.tphl, tt.tphl);
  EXPECT_GT(fs.tplh, tt.tplh);
  EXPECT_GT(sf.tphl, tt.tphl);
  EXPECT_LT(sf.tplh, tt.tplh);
}

TEST(Corners, SummaryMentionsEveryCorner) {
  const StatisticalCorners corners(kit());
  const std::string s = corners.summary();
  for (const Corner c : kAllCorners) {
    EXPECT_NE(s.find(toString(c)), std::string::npos) << toString(c);
  }
}

}  // namespace
}  // namespace vsstat::core
