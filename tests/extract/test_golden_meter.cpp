#include "extract/golden_meter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/geometry.hpp"
#include "util/error.hpp"

namespace vsstat::extract {
namespace {

using models::DeviceType;
using models::geometryNm;

TEST(GoldenKit, DefaultIsFortyNmClass) {
  const GoldenKit kit = GoldenKit::default40nm();
  EXPECT_EQ(kit.nmos.type, DeviceType::Nmos);
  EXPECT_EQ(kit.pmos.type, DeviceType::Pmos);
  EXPECT_DOUBLE_EQ(kit.vdd, 0.9);
  EXPECT_GT(kit.nmosMismatch.aVth, 0.0);
}

TEST(GoldenMeter, McVarianceMatchesAnalyticWithinNoise) {
  const GoldenKit kit = GoldenKit::default40nm();
  const auto geom = geometryNm(600, 40);
  GoldenMeterOptions opt;
  opt.samples = 4000;
  const GeometryMeasurement mc =
      measureGoldenVariance(kit, DeviceType::Nmos, geom, opt);
  const GeometryMeasurement an =
      analyticGoldenVariance(kit, DeviceType::Nmos, geom);
  // MC sigma of variance ~ var * sqrt(2/n) ~ 2%; allow 12%.
  EXPECT_NEAR(mc.varIdsat, an.varIdsat, 0.12 * an.varIdsat);
  EXPECT_NEAR(mc.varLog10Ioff, an.varLog10Ioff, 0.12 * an.varLog10Ioff);
  EXPECT_NEAR(mc.varCgg, an.varCgg, 0.12 * an.varCgg);
}

TEST(GoldenMeter, VarianceShrinksWithArea) {
  const GoldenKit kit = GoldenKit::default40nm();
  const auto small = analyticGoldenVariance(kit, DeviceType::Nmos,
                                            geometryNm(300, 40));
  const auto large = analyticGoldenVariance(kit, DeviceType::Nmos,
                                            geometryNm(1200, 40));
  EXPECT_GT(small.varLog10Ioff, 2.0 * large.varLog10Ioff);
}

TEST(GoldenMeter, DeterministicForFixedSeed) {
  const GoldenKit kit = GoldenKit::default40nm();
  GoldenMeterOptions opt;
  opt.samples = 200;
  opt.seed = 77;
  const auto a =
      measureGoldenVariance(kit, DeviceType::Pmos, geometryNm(600, 40), opt);
  const auto b =
      measureGoldenVariance(kit, DeviceType::Pmos, geometryNm(600, 40), opt);
  EXPECT_DOUBLE_EQ(a.varIdsat, b.varIdsat);
  EXPECT_DOUBLE_EQ(a.varLog10Ioff, b.varLog10Ioff);
}

TEST(GoldenMeter, MatchesRecordedVariances) {
  // Recorded from the per-sample loop the campaign runner replaced: the
  // same child streams, reduced in the same order.
  GoldenMeterOptions opt;
  opt.samples = 64;
  opt.seed = 77;
  const GeometryMeasurement m = measureGoldenVariance(
      GoldenKit::default40nm(), DeviceType::Nmos, geometryNm(600, 40), opt);
  EXPECT_EQ(m.varIdsat, 0x1.2ac854579237bp-33);
  EXPECT_EQ(m.varLog10Ioff, 0x1.de750be46d35fp-6);
  EXPECT_EQ(m.varCgg, 0x1.6852f00542176p-112);
}

TEST(GoldenMeter, GeometrySetSweepsDecorrelatedSeeds) {
  const GoldenKit kit = GoldenKit::default40nm();
  GoldenMeterOptions opt;
  opt.samples = 100;
  const auto set = measureGoldenVariances(
      kit, DeviceType::Nmos, {geometryNm(300, 40), geometryNm(600, 40)}, opt);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_GT(set[0].varIdsat / (set[0].geom.widthNm()),
            0.0);  // sanity: populated
}

TEST(GoldenMeter, RejectsTinySampleCount) {
  const GoldenKit kit = GoldenKit::default40nm();
  GoldenMeterOptions opt;
  opt.samples = 4;
  EXPECT_THROW(
      (void)measureGoldenVariance(kit, DeviceType::Nmos, geometryNm(600, 40), opt),
      InvalidArgumentError);
}

TEST(ExtractionGeometries, CoversPaperWidthSweepAndLongerL) {
  const auto geoms = extractionGeometries();
  EXPECT_GE(geoms.size(), 6u);
  bool hasWide = false, hasNarrow = false, hasLongL = false;
  for (const auto& g : geoms) {
    if (g.widthNm() >= 1400.0) hasWide = true;
    if (g.widthNm() <= 150.0) hasNarrow = true;
    if (g.lengthNm() > 50.0) hasLongL = true;
  }
  EXPECT_TRUE(hasWide);
  EXPECT_TRUE(hasNarrow);
  EXPECT_TRUE(hasLongL);
}

}  // namespace
}  // namespace vsstat::extract
