#include "extract/golden_meter.hpp"

#include <array>

#include "mc/runner.hpp"
#include "measure/device_metrics.hpp"
#include "models/bsim_lite.hpp"
#include "models/process_variation.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::extract {

GoldenKit GoldenKit::default40nm() {
  GoldenKit kit;
  kit.nmos = models::defaultBsimNmos();
  kit.pmos = models::defaultBsimPmos();
  kit.nmosMismatch = models::defaultBsimMismatchNmos();
  kit.pmosMismatch = models::defaultBsimMismatchPmos();
  kit.vdd = 0.9;
  return kit;
}

namespace {

const models::BsimParams& cardFor(const GoldenKit& kit,
                                  models::DeviceType type) {
  return type == models::DeviceType::Nmos ? kit.nmos : kit.pmos;
}

const models::BsimMismatch& mismatchFor(const GoldenKit& kit,
                                        models::DeviceType type) {
  return type == models::DeviceType::Nmos ? kit.nmosMismatch
                                          : kit.pmosMismatch;
}

}  // namespace

GeometryMeasurement measureGoldenVariance(const GoldenKit& kit,
                                          models::DeviceType type,
                                          const models::DeviceGeometry& geom,
                                          const GoldenMeterOptions& options) {
  require(options.samples >= 16, "measureGoldenVariance: need >= 16 samples");
  const models::BsimParams& card = cardFor(kit, type);
  const models::PelgromAlphas alphas =
      models::toPelgromAlphas(mismatchFor(kit, type));
  const models::ParameterSigmas sigmas = models::sigmasFor(alphas, geom);

  // One campaign sample per device draw; the moments reduce the metric
  // rows in sample-index order.
  mc::McOptions campaign;
  campaign.samples = options.samples;
  campaign.seed = options.seed;
  campaign.threads = options.threads;
  const mc::McResult r = mc::runCampaign(
      campaign, 3,
      [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        const models::VariationDelta delta = models::sampleDelta(sigmas, rng);
        const models::BsimLite model(models::applyToBsim(card, delta));
        const measure::ElectricalTargets t = measure::measureTargets(
            model, models::applyGeometry(geom, delta), kit.vdd);
        out[0] = t.idsat;
        out[1] = t.log10Ioff;
        out[2] = t.cgg;
      });

  stats::MomentAccumulator idsatAcc;
  stats::MomentAccumulator ioffAcc;
  stats::MomentAccumulator cggAcc;
  for (std::size_t s = 0; s < r.sampleCount(); ++s) {
    idsatAcc.add(r.metrics[0][s]);
    ioffAcc.add(r.metrics[1][s]);
    cggAcc.add(r.metrics[2][s]);
  }

  GeometryMeasurement m;
  m.geom = geom;
  m.varIdsat = idsatAcc.variance();
  m.varLog10Ioff = ioffAcc.variance();
  m.varCgg = cggAcc.variance();
  return m;
}

std::vector<GeometryMeasurement> measureGoldenVariances(
    const GoldenKit& kit, models::DeviceType type,
    const std::vector<models::DeviceGeometry>& geoms,
    const GoldenMeterOptions& options) {
  std::vector<GeometryMeasurement> result;
  result.reserve(geoms.size());
  GoldenMeterOptions o = options;
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    // Decorrelate per-geometry campaigns deterministically.
    o.seed = options.seed + 7919 * (i + 1);
    result.push_back(measureGoldenVariance(kit, type, geoms[i], o));
  }
  return result;
}

GeometryMeasurement analyticGoldenVariance(const GoldenKit& kit,
                                           models::DeviceType type,
                                           const models::DeviceGeometry& geom) {
  const models::BsimParams& card = cardFor(kit, type);
  const models::PelgromAlphas alphas =
      models::toPelgromAlphas(mismatchFor(kit, type));
  const models::ParameterSigmas sig = models::sigmasFor(alphas, geom);

  // Central-difference sensitivities of the golden model's targets w.r.t.
  // its own parameters, then first-order variance accumulation.
  const auto evalTargets = [&](const models::VariationDelta& delta) {
    const models::BsimLite model(models::applyToBsim(card, delta));
    const models::DeviceGeometry g = models::applyGeometry(geom, delta);
    const measure::ElectricalTargets t =
        measure::measureTargets(model, g, kit.vdd);
    return std::array<double, 3>{t.idsat, t.log10Ioff, t.cgg};
  };

  const std::array<double, 5> sigmas = {sig.sVt0, sig.sLeff, sig.sWeff,
                                        sig.sMu, sig.sCinv};
  GeometryMeasurement m;
  m.geom = geom;
  for (std::size_t j = 0; j < sigmas.size(); ++j) {
    if (sigmas[j] <= 0.0) continue;
    const double h = sigmas[j];  // differentiate at the one-sigma scale
    models::VariationDelta plus{};
    models::VariationDelta minus{};
    switch (j) {
      case 0:
        plus.dVt0 = h;
        minus.dVt0 = -h;
        break;
      case 1:
        plus.dLeff = h;
        minus.dLeff = -h;
        break;
      case 2:
        plus.dWeff = h;
        minus.dWeff = -h;
        break;
      case 3:
        plus.dMu = h;
        minus.dMu = -h;
        break;
      case 4:
        plus.dCinv = h;
        minus.dCinv = -h;
        break;
      default:
        break;
    }
    const auto up = evalTargets(plus);
    const auto dn = evalTargets(minus);
    const double dIdsat = (up[0] - dn[0]) / 2.0;
    const double dIoff = (up[1] - dn[1]) / 2.0;
    const double dCgg = (up[2] - dn[2]) / 2.0;
    m.varIdsat += dIdsat * dIdsat;
    m.varLog10Ioff += dIoff * dIoff;
    m.varCgg += dCgg * dCgg;
  }
  return m;
}

std::vector<models::DeviceGeometry> extractionGeometries() {
  return {
      models::geometryNm(120, 40),  models::geometryNm(300, 40),
      models::geometryNm(600, 40),  models::geometryNm(1000, 40),
      models::geometryNm(1500, 40), models::geometryNm(300, 60),
      models::geometryNm(600, 60),  models::geometryNm(600, 100),
  };
}

}  // namespace vsstat::extract
