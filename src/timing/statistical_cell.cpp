#include "timing/statistical_cell.hpp"

#include "mc/runner.hpp"
#include "models/vs_model.hpp"
#include "stats/descriptive.hpp"
#include "timing/tables.hpp"
#include "util/error.hpp"

namespace vsstat::timing {

namespace {

/// Scales a corner delta (core::kCornerSigmas sigmas) down to z sigmas.
models::VariationDelta scaledCorner(const models::VariationDelta& fast3,
                                    double z) {
  models::VariationDelta d;
  const double f = z / core::kCornerSigmas;
  d.dVt0 = f * fast3.dVt0;
  d.dLeff = f * fast3.dLeff;
  d.dWeff = f * fast3.dWeff;
  d.dMu = f * fast3.dMu;
  d.dCinv = f * fast3.dCinv;
  return d;
}

}  // namespace

CanonicalDelay characterizeStageDelay(const core::StatisticalVsKit& kit,
                                      const core::StatisticalCorners& corners,
                                      const circuits::CellSizing& sizing,
                                      const StageModelOptions& options) {
  require(options.mismatchSamples >= 8,
          "characterizeStageDelay: need >= 8 mismatch samples");

  const models::DeviceGeometry pGeom =
      models::geometryNm(sizing.wPmosNm, sizing.lengthNm);
  const models::DeviceGeometry nGeom =
      models::geometryNm(sizing.wNmosNm, sizing.lengthNm);
  const double vdd = kit.vdd();

  // Stage delay for explicit per-polarity deltas.
  const auto delayWith = [&](const models::VariationDelta& dN,
                             const models::VariationDelta& dP) {
    const models::VsModel pmos(
        models::applyToVs(kit.nominal(models::DeviceType::Pmos), dP));
    const models::VsModel nmos(
        models::applyToVs(kit.nominal(models::DeviceType::Nmos), dN));
    return measureInverterPoint(pmos, models::applyGeometry(pGeom, dP), nmos,
                                models::applyGeometry(nGeom, dN), vdd,
                                kStageInputSlew, kStageLoadFarads, kStageDt)
        .averageDelay();
  };

  const models::VariationDelta zero{};
  const models::VariationDelta& fastN =
      corners.delta(core::Corner::FF, models::DeviceType::Nmos);
  const models::VariationDelta& fastP =
      corners.delta(core::Corner::FF, models::DeviceType::Pmos);

  CanonicalDelay d;
  d.mean = delayWith(zero, zero);
  d.global.resize(2);
  // Central differences along each 1-sigma corner axis.
  d.global[0] = 0.5 * (delayWith(scaledCorner(fastN, 1.0), zero) -
                       delayWith(scaledCorner(fastN, -1.0), zero));
  d.global[1] = 0.5 * (delayWith(zero, scaledCorner(fastP, 1.0)) -
                       delayWith(zero, scaledCorner(fastP, -1.0)));

  // Local sigma: mismatch-only Monte Carlo of the same fixture, on a fixed
  // seed.  A sample that throws a SampleFailure aborts the stage model.
  mc::McOptions campaign;
  campaign.samples = options.mismatchSamples;
  campaign.seed = 1;
  const mc::McResult r = mc::runCampaign(
      campaign, 1,
      [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        const models::VariationDelta dN = models::sampleDelta(
            kit.sigmas(models::DeviceType::Nmos, nGeom), rng);
        const models::VariationDelta dP = models::sampleDelta(
            kit.sigmas(models::DeviceType::Pmos, pGeom), rng);
        out[0] = delayWith(dN, dP);
      });
  if (r.failures > 0)
    throw SampleFailure(r.firstFailure.message, r.firstFailure.failureClass);
  d.local = stats::summarize(r.metrics[0]).stddev;
  return d;
}

}  // namespace vsstat::timing
