#include "core/corners.hpp"

#include <cmath>
#include <sstream>

#include "extract/sensitivity.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::core {

namespace {

/// Whether the corner is fast for the given polarity (TT handled before).
bool fastFor(Corner c, models::DeviceType t) noexcept {
  const bool isN = t == models::DeviceType::Nmos;
  switch (c) {
    case Corner::FF:
      return true;
    case Corner::SS:
      return false;
    case Corner::FS:
      return isN;
    case Corner::SF:
      return !isN;
    case Corner::TT:
      break;
  }
  return true;
}

}  // namespace

const char* toString(Corner c) noexcept {
  switch (c) {
    case Corner::TT:
      return "TT";
    case Corner::FF:
      return "FF";
    case Corner::SS:
      return "SS";
    case Corner::FS:
      return "FS";
    case Corner::SF:
      return "SF";
  }
  return "?";
}

StatisticalCorners::StatisticalCorners(const StatisticalVsKit& kit)
    : kit_(kit) {
  nmos_ = derive(kit.nominal(models::DeviceType::Nmos),
                 kit.alphas(models::DeviceType::Nmos), kit.vdd());
  pmos_ = derive(kit.nominal(models::DeviceType::Pmos),
                 kit.alphas(models::DeviceType::Pmos), kit.vdd());
}

StatisticalCorners::PolarityCorner StatisticalCorners::derive(
    const models::VsParams& card, const models::PelgromAlphas& a,
    double vdd) {
  const models::DeviceGeometry geom = kCornerReferenceGeometry;
  const linalg::Matrix sens = extract::targetSensitivities(card, geom, vdd);
  const models::ParameterSigmas s = models::sigmasFor(a, geom);

  const auto idsatRow = static_cast<std::size_t>(extract::Target::Idsat);
  const std::array<double, extract::kParameterCount> sigma = {
      s.sVt0, s.sLeff, s.sWeff, s.sMu, s.sCinv};
  std::array<double, extract::kParameterCount> g{};
  double var = 0.0;
  for (std::size_t j = 0; j < extract::kParameterCount; ++j) {
    g[j] = sens(idsatRow, j);
    var += g[j] * sigma[j] * g[j] * sigma[j];
  }
  require(var > 0.0, "StatisticalCorners: zero Idsat variance");
  const double sigmaIdsat = std::sqrt(var);

  // Most-probable point for a +/- n sigma Idsat excursion of a linear
  // target: delta_j = +/- n sigma_j^2 g_j / sigma_e.
  PolarityCorner pc;
  const double scale = kCornerSigmas / sigmaIdsat;
  const auto fill = [&](models::VariationDelta& d, double sign) {
    d.dVt0 = sign * scale * sigma[0] * sigma[0] * g[0];
    d.dLeff = sign * scale * sigma[1] * sigma[1] * g[1];
    d.dWeff = sign * scale * sigma[2] * sigma[2] * g[2];
    d.dMu = sign * scale * sigma[3] * sigma[3] * g[3];
    d.dCinv = sign * scale * sigma[4] * sigma[4] * g[4];
  };
  fill(pc.fast, 1.0);
  fill(pc.slow, -1.0);

  const models::VsModel nominal(card);
  pc.idsatNominal = nominal.drainCurrent(geom, vdd, vdd);
  pc.idsatSigma = sigmaIdsat;
  return pc;
}

const models::VariationDelta& StatisticalCorners::delta(
    Corner corner, models::DeviceType type) const noexcept {
  if (corner == Corner::TT) return zero_;
  const PolarityCorner& pc =
      type == models::DeviceType::Nmos ? nmos_ : pmos_;
  return fastFor(corner, type) ? pc.fast : pc.slow;
}

double StatisticalCorners::predictedIdsatRatio(
    Corner corner, models::DeviceType type) const noexcept {
  if (corner == Corner::TT) return 1.0;
  const PolarityCorner& pc =
      type == models::DeviceType::Nmos ? nmos_ : pmos_;
  const double sign = fastFor(corner, type) ? 1.0 : -1.0;
  return 1.0 + sign * kCornerSigmas * pc.idsatSigma / pc.idsatNominal;
}

namespace {

/// Applies a fixed per-polarity delta to every requested instance.
class CornerProvider final : public circuits::DeviceProvider {
 public:
  CornerProvider(const StatisticalVsKit& kit,
                 models::VariationDelta nmosDelta,
                 models::VariationDelta pmosDelta)
      : kit_(kit), nmos_(nmosDelta), pmos_(pmosDelta) {}

  [[nodiscard]] circuits::DeviceInstance make(
      models::DeviceType type, const std::string&,
      const models::DeviceGeometry& nominal) override {
    const models::VariationDelta& d =
        type == models::DeviceType::Nmos ? nmos_ : pmos_;
    return {std::make_unique<models::VsModel>(
                models::applyToVs(kit_.nominal(type), d)),
            models::applyGeometry(nominal, d)};
  }

 private:
  const StatisticalVsKit& kit_;
  models::VariationDelta nmos_;
  models::VariationDelta pmos_;
};

}  // namespace

std::unique_ptr<circuits::DeviceProvider> StatisticalCorners::makeProvider(
    Corner corner) const {
  return std::make_unique<CornerProvider>(
      kit_, delta(corner, models::DeviceType::Nmos),
      delta(corner, models::DeviceType::Pmos));
}

std::string StatisticalCorners::summary() const {
  std::ostringstream os;
  os << "Statistical corners at " << kCornerSigmas << " sigma (W/L = "
     << kCornerReferenceGeometry.widthNm() << "/"
     << kCornerReferenceGeometry.lengthNm() << " nm)\n";
  for (const Corner c : kAllCorners) {
    os << "  " << toString(c) << ":";
    for (const auto type :
         {models::DeviceType::Nmos, models::DeviceType::Pmos}) {
      const models::VariationDelta& d = delta(c, type);
      os << "  " << models::toString(type) << " dVT0 = " << d.dVt0 * 1e3
         << " mV, dLeff = " << d.dLeff * 1e9 << " nm, Idsat x"
         << predictedIdsatRatio(c, type);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace vsstat::core
