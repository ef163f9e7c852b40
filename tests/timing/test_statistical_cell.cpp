// Statistical stage characterization and its consistency with the corner
// machinery it is built from.
#include <gtest/gtest.h>

#include <cmath>

#include "core/corners.hpp"
#include "models/vs_model.hpp"
#include "timing/statistical_cell.hpp"
#include "timing/tables.hpp"
#include "util/error.hpp"

namespace vsstat::timing {
namespace {

const core::StatisticalVsKit& kit() {
  static const core::StatisticalVsKit k = [] {
    core::CharacterizeOptions opt;
    opt.analyticGoldenVariance = true;
    return core::StatisticalVsKit::characterize(
        extract::GoldenKit::default40nm(), opt);
  }();
  return k;
}

const core::StatisticalCorners& corners() {
  static const core::StatisticalCorners c(kit());
  return c;
}

const CanonicalDelay& stage() {
  static const CanonicalDelay d = [] {
    StageModelOptions opt;
    opt.mismatchSamples = 24;
    return characterizeStageDelay(kit(), corners(), circuits::CellSizing{},
                                  opt);
  }();
  return d;
}

TEST(StatisticalCell, FasterDevicesShortenTheDelay) {
  // Both global axes point toward faster devices, so both delay
  // coefficients must be negative, and the local sigma positive.
  ASSERT_EQ(stage().global.size(), 2u);
  EXPECT_LT(stage().global[0], 0.0);
  EXPECT_LT(stage().global[1], 0.0);
  EXPECT_GT(stage().local, 0.0);
  EXPECT_GT(stage().mean, 1e-12);
  EXPECT_LT(stage().mean, 100e-12);
}

TEST(StatisticalCell, LinearModelPredictsTheFastCornerDelay) {
  // Evaluate the stage fixture at the FF corner (+3 on both axes): the
  // canonical linear prediction mean + 3 gN + 3 gP must land close.
  const circuits::CellSizing sizing;
  const models::DeviceGeometry pGeom =
      models::geometryNm(sizing.wPmosNm, sizing.lengthNm);
  const models::DeviceGeometry nGeom =
      models::geometryNm(sizing.wNmosNm, sizing.lengthNm);
  const auto& dN = corners().delta(core::Corner::FF, models::DeviceType::Nmos);
  const auto& dP = corners().delta(core::Corner::FF, models::DeviceType::Pmos);

  const models::VsModel pmos(
      models::applyToVs(kit().nominal(models::DeviceType::Pmos), dP));
  const models::VsModel nmos(
      models::applyToVs(kit().nominal(models::DeviceType::Nmos), dN));
  const double ffDelay =
      measureInverterPoint(pmos, models::applyGeometry(pGeom, dP), nmos,
                           models::applyGeometry(nGeom, dN), kit().vdd(),
                           kStageInputSlew, kStageLoadFarads, kStageDt)
          .averageDelay();

  const double predicted =
      stage().mean + 3.0 * (stage().global[0] + stage().global[1]);
  // First-order model at a 3-sigma excursion: ~5% window.
  EXPECT_NEAR(ffDelay / predicted, 1.0, 0.05);
}

TEST(StatisticalCell, LocalSigmaMatchesRecorded) {
  // Recorded from the per-sample loop the campaign runner replaced: the
  // same child streams, reduced in the same order.  Re-recorded when the
  // circuit Newton began carrying each device's series-resistance current
  // (0x1.51583670981acp-42 before, 5.8e-7 relative).
  EXPECT_EQ(stage().local, 0x1.515843557cf37p-42);
}

TEST(StatisticalCell, ASampleFailureAbortsTheStageModel) {
  // The kit's cards with a VT0 mismatch of about 1 V: some draws leave an
  // inverter that never switches.  The nominal and corner delays still
  // come from the cards and the regular corners.
  models::PelgromAlphas wild = kit().alphas(models::DeviceType::Nmos);
  wild.aVt0 = 150.0;
  const core::StatisticalVsKit broken(
      kit().nominal(models::DeviceType::Nmos),
      kit().nominal(models::DeviceType::Pmos), wild, wild, kit().vdd());
  StageModelOptions opt;
  opt.mismatchSamples = 8;
  EXPECT_THROW((void)characterizeStageDelay(broken, corners(),
                                            circuits::CellSizing{}, opt),
               SampleFailure);
}

TEST(StatisticalCell, ValidatesOptions) {
  StageModelOptions bad;
  bad.mismatchSamples = 2;
  EXPECT_THROW((void)characterizeStageDelay(kit(), corners(),
                                            circuits::CellSizing{}, bad),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::timing
