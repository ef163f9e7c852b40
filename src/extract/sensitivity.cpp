#include "extract/sensitivity.hpp"

#include "measure/device_metrics.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {

const char* toString(Target t) noexcept {
  switch (t) {
    case Target::Idsat:
      return "Idsat";
    case Target::Log10Ioff:
      return "log10(Ioff)";
    case Target::Cgg:
      return "Cgg@Vdd";
  }
  return "?";
}

std::array<double, kParameterCount> sensitivitySteps(
    const models::VsParams& card, const models::DeviceGeometry& geom) {
  std::array<double, kParameterCount> h{};
  h[static_cast<std::size_t>(Parameter::Vt0)] = 2e-3;            // 2 mV
  h[static_cast<std::size_t>(Parameter::Leff)] = 0.01 * geom.length;
  h[static_cast<std::size_t>(Parameter::Weff)] = 0.01 * geom.width;
  h[static_cast<std::size_t>(Parameter::Mu)] = 0.01 * card.mu;
  h[static_cast<std::size_t>(Parameter::Cinv)] = 0.005 * card.cinv;
  return h;
}

linalg::Matrix targetSensitivities(const models::VsParams& card,
                                   const models::DeviceGeometry& geom,
                                   double vdd) {
  require(vdd > 0.0, "targetSensitivities: vdd must be positive");
  const auto steps = sensitivitySteps(card, geom);

  // Evaluate all three targets for a card/geometry perturbed by delta.
  const auto evalTargets = [&](const models::VariationDelta& delta) {
    const models::VsParams varied = models::applyToVs(card, delta);
    const models::DeviceGeometry g = models::applyGeometry(geom, delta);
    const models::VsModel model(varied);
    const measure::ElectricalTargets t = measure::measureTargets(model, g, vdd);
    return std::array<double, kTargetCount>{t.idsat, t.log10Ioff, t.cgg};
  };

  linalg::Matrix sens(kTargetCount, kParameterCount, 0.0);
  for (std::size_t j = 0; j < kParameterCount; ++j) {
    models::VariationDelta plus{};
    models::VariationDelta minus{};
    const double h = steps[j];
    switch (static_cast<Parameter>(j)) {
      case Parameter::Vt0:
        plus.dVt0 = h;
        minus.dVt0 = -h;
        break;
      case Parameter::Leff:
        plus.dLeff = h;
        minus.dLeff = -h;
        break;
      case Parameter::Weff:
        plus.dWeff = h;
        minus.dWeff = -h;
        break;
      case Parameter::Mu:
        plus.dMu = h;
        minus.dMu = -h;
        break;
      case Parameter::Cinv:
        plus.dCinv = h;
        minus.dCinv = -h;
        break;
    }
    const auto up = evalTargets(plus);
    const auto dn = evalTargets(minus);
    for (std::size_t i = 0; i < kTargetCount; ++i) {
      sens(i, j) = (up[i] - dn[i]) / (2.0 * h);
    }
  }
  return sens;
}

}  // namespace vsstat::extract
