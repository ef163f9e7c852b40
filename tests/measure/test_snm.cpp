#include "measure/snm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::measure {
namespace {

using circuits::NominalProvider;
using circuits::SramButterflyBench;
using circuits::SramMode;
using circuits::SramSizing;
using models::VsModel;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

/// Ideal analytic "inverter": a step VTC, SNM of the symmetric butterfly
/// equals half the step width... exact value computed by construction.
VtcCurve stepVtc(double vdd, double threshold, int points = 201) {
  VtcCurve c;
  for (int i = 0; i < points; ++i) {
    const double x = vdd * i / (points - 1);
    c.x.push_back(x);
    // steep but continuous transition
    const double y = vdd / (1.0 + std::exp((x - threshold) / 0.002));
    c.y.push_back(y);
  }
  return c;
}

TEST(Snm, IdealSymmetricButterflyGivesKnownSquare) {
  // Two ideal step inverters at threshold vdd/2: lobes are squares of side
  // ~vdd/2, so the embedded square side approaches vdd/2.
  const double vdd = 1.0;
  ButterflyCurves curves;
  curves.curve1 = stepVtc(vdd, 0.5);
  const VtcCurve v2 = stepVtc(vdd, 0.5);
  curves.curve2.x = v2.y;  // mirrored
  curves.curve2.y = v2.x;
  const SnmResult r = staticNoiseMargin(curves, vdd);
  EXPECT_NEAR(r.lobe1, 0.5, 0.03);
  EXPECT_NEAR(r.lobe2, 0.5, 0.03);
  EXPECT_NEAR(r.cellSnm(), std::min(r.lobe1, r.lobe2), 1e-15);
}

TEST(Snm, AsymmetricThresholdsShrinkOneLobe) {
  const double vdd = 1.0;
  ButterflyCurves curves;
  curves.curve1 = stepVtc(vdd, 0.35);  // early switch
  const VtcCurve v2 = stepVtc(vdd, 0.50);
  curves.curve2.x = v2.y;
  curves.curve2.y = v2.x;
  const SnmResult r = staticNoiseMargin(curves, vdd);
  EXPECT_GT(std::fabs(r.lobe1 - r.lobe2), 0.1);
}

TEST(Snm, MonostableCurvesReportZero) {
  // Two identical non-inverting lines never form a butterfly.
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0, 1.0}, {0.9, 0.95}};
  curves.curve2 = VtcCurve{{0.0, 1.0}, {0.0, 0.05}};
  const SnmResult r = staticNoiseMargin(curves, 1.0);
  EXPECT_DOUBLE_EQ(r.cellSnm(), 0.0);
}

TEST(Snm, SramHoldButterflyInExpectedRange) {
  auto p = vsProvider();
  SramButterflyBench b =
      circuits::buildSramButterfly(p, 0.9, SramMode::Hold, SramSizing{});
  spice::SimSession session(b.circuit);
  const SnmResult r = measureSnm(b, session);
  // Paper Fig. 9(e): HOLD SNM ~ 0.30 V at 0.9 V supply.
  EXPECT_GT(r.cellSnm(), 0.15);
  EXPECT_LT(r.cellSnm(), 0.45);
}

TEST(Snm, ReadSnmSmallerThanHoldSnm) {
  auto p1 = vsProvider();
  auto hold = circuits::buildSramButterfly(p1, 0.9, SramMode::Hold, SramSizing{});
  auto p2 = vsProvider();
  auto read = circuits::buildSramButterfly(p2, 0.9, SramMode::Read, SramSizing{});
  spice::SimSession holdSession(hold.circuit);
  spice::SimSession readSession(read.circuit);
  const double snmHold = measureSnm(hold, holdSession).cellSnm();
  const double snmRead = measureSnm(read, readSession).cellSnm();
  // Paper Fig. 9(b)/(e): READ ~0.1 V << HOLD ~0.3 V.
  EXPECT_LT(snmRead, 0.7 * snmHold);
  EXPECT_GT(snmRead, 0.0);
}

TEST(Snm, ButterflyCurvesSpanSupply) {
  auto p = vsProvider();
  SramButterflyBench b =
      circuits::buildSramButterfly(p, 0.9, SramMode::Hold, SramSizing{});
  const ButterflyCurves curves = measureButterfly(b, 41);
  EXPECT_EQ(curves.curve1.x.size(), 41u);
  EXPECT_NEAR(curves.curve1.x.front(), 0.0, 1e-12);
  EXPECT_NEAR(curves.curve1.x.back(), 0.9, 1e-12);
  // Curve 2 is mirrored: y spans the sweep.
  EXPECT_NEAR(curves.curve2.y.front(), 0.0, 1e-12);
  EXPECT_NEAR(curves.curve2.y.back(), 0.9, 1e-12);
}

TEST(Snm, RejectsDegenerateCurves) {
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0}, {1.0}};
  curves.curve2 = VtcCurve{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_THROW((void)staticNoiseMargin(curves, 1.0), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::measure
