// SSTA on canonical delays, validated against flat Monte Carlo.
//
// The paper's Fig. 7 discussion (ref [14]) presumes an SSTA layer above
// the statistical device model.  This example builds that layer for a
// 6-stage inverter path:
//
//   1. characterize one stage's canonical delay from the statistical VS
//      kit (global N/P corner axes + local mismatch sigma),
//   2. compose the path canonically (means/globals add, locals RSS) and
//      take the statistical max of the path against a skewed sibling,
//   3. validate mean/sigma against a Monte Carlo that samples the SAME
//      variation model (shared die axes + fresh per-stage mismatch) and
//      measures each stage in the characterization fixture.
//
// Usage: example_ssta_path [samples]   (default 150 flat-MC samples)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/corners.hpp"
#include "core/statistical_vs.hpp"
#include "mc/runner.hpp"
#include "models/vs_model.hpp"
#include "stats/descriptive.hpp"
#include "timing/statistical_cell.hpp"
#include "timing/tables.hpp"

using namespace vsstat;

namespace {

models::VariationDelta scaled(const models::VariationDelta& fast3, double z) {
  models::VariationDelta d;
  const double f = z / 3.0;
  d.dVt0 = f * fast3.dVt0;
  d.dLeff = f * fast3.dLeff;
  d.dWeff = f * fast3.dWeff;
  d.dMu = f * fast3.dMu;
  d.dCinv = f * fast3.dCinv;
  return d;
}

models::VariationDelta combine(const models::VariationDelta& a,
                               const models::VariationDelta& b) {
  models::VariationDelta d = a;
  d.dVt0 += b.dVt0;
  d.dLeff += b.dLeff;
  d.dWeff += b.dWeff;
  d.dMu += b.dMu;
  d.dCinv += b.dCinv;
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  core::CharacterizeOptions copt;
  copt.analyticGoldenVariance = true;
  const core::StatisticalVsKit kit = core::StatisticalVsKit::characterize(
      extract::GoldenKit::default40nm(), copt);
  const core::StatisticalCorners corners(kit);
  const circuits::CellSizing sizing;

  constexpr int kStages = 6;
  timing::StageModelOptions sopt;
  sopt.mismatchSamples = 48;

  // 1. One stage's canonical delay.
  const timing::CanonicalDelay stage =
      timing::characterizeStageDelay(kit, corners, sizing, sopt);
  std::printf("stage: d0 = %.3f ps, gN = %.3f ps, gP = %.3f ps, "
              "local = %.3f ps\n",
              stage.mean * 1e12, stage.global[0] * 1e12,
              stage.global[1] * 1e12, stage.local * 1e12);

  // 2. Canonical path and statistical max against a skewed sibling.
  timing::CanonicalDelay path = stage;
  for (int k = 1; k < kStages; ++k) path = timing::addSeries(path, stage);
  std::printf("path (%d stages): mean = %.2f ps, sigma = %.3f ps "
              "(3-sigma = %.2f ps)\n",
              kStages, path.mean * 1e12, path.sigma() * 1e12,
              path.quantileSigma(3.0) * 1e12);

  // 3. Monte Carlo over the same model: shared (zN, zP) die axes plus
  //    fresh local mismatch per stage, each stage measured in the
  //    characterization fixture.
  const models::DeviceGeometry pGeom =
      models::geometryNm(sizing.wPmosNm, sizing.lengthNm);
  const models::DeviceGeometry nGeom =
      models::geometryNm(sizing.wNmosNm, sizing.lengthNm);
  const auto& fastN = corners.delta(core::Corner::FF, models::DeviceType::Nmos);
  const auto& fastP = corners.delta(core::Corner::FF, models::DeviceType::Pmos);

  const int kSamples = argc > 1 ? std::max(std::atoi(argv[1]), 10) : 150;
  mc::McOptions mcOpt;
  mcOpt.samples = kSamples;
  mcOpt.seed = 20260611;
  const mc::McResult flat = mc::runCampaign(
      mcOpt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        const double zN = rng.normal();
        const double zP = rng.normal();
        double total = 0.0;
        for (int k = 0; k < kStages; ++k) {
          const models::VariationDelta dN =
              combine(scaled(fastN, zN),
                      models::sampleDelta(
                          kit.sigmas(models::DeviceType::Nmos, nGeom), rng));
          const models::VariationDelta dP =
              combine(scaled(fastP, zP),
                      models::sampleDelta(
                          kit.sigmas(models::DeviceType::Pmos, pGeom), rng));
          const models::VsModel pmos(
              models::applyToVs(kit.nominal(models::DeviceType::Pmos), dP));
          const models::VsModel nmos(
              models::applyToVs(kit.nominal(models::DeviceType::Nmos), dN));
          total += timing::measureInverterPoint(
                       pmos, models::applyGeometry(pGeom, dP), nmos,
                       models::applyGeometry(nGeom, dN), kit.vdd(),
                       timing::kStageInputSlew, timing::kStageLoadFarads,
                       timing::kStageDt)
                       .averageDelay();
        }
        out[0] = total;
      });
  const stats::Summary mc = stats::summarize(flat.metrics[0]);
  std::printf("flat MC (%d samples):   mean = %.2f ps, sigma = %.3f ps\n",
              kSamples, mc.mean * 1e12, mc.stddev * 1e12);
  std::printf("  SSTA/MC ratios: mean %.3f, sigma %.3f\n",
              path.mean / mc.mean, path.sigma() / mc.stddev);

  // Statistical max: the same path raced against a sibling slowed by one
  // extra stage -- the sibling dominates, and Clark's max must say so.
  const timing::CanonicalDelay sibling = timing::addSeries(path, stage);
  const timing::CanonicalDelay worst = timing::statisticalMax(path, sibling);
  std::printf("\nmax(path, path+1 stage): mean = %.2f ps (sibling %.2f ps), "
              "P[path critical] = %.4f\n",
              worst.mean * 1e12, sibling.mean * 1e12,
              timing::exceedanceProbability(path, sibling));
  return 0;
}
