#include "models/bsim_lite.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace vsstat::models {

BsimLite::BsimLite(BsimParams params) : params_(params) {
  require(params_.cox > 0.0 && params_.u0 > 0.0 && params_.vsat > 0.0,
          "BsimLite: cox, u0, vsat must be positive");
  require(params_.nfactor >= 1.0, "BsimLite: nfactor >= 1 required");
}

std::unique_ptr<MosfetModel> BsimLite::clone() const {
  return std::make_unique<BsimLite>(*this);
}

bool BsimLite::assignFrom(const MosfetModel& other) {
  const auto* o = dynamic_cast<const BsimLite*>(&other);
  if (o == nullptr) return false;
  params_ = o->params_;
  return true;
}

BsimLite::Operating BsimLite::operatingPoint(const DeviceGeometry& geom,
                                             double vgs, double vds) const {
  const BsimParams& p = params_;
  const double phit = units::thermalVoltage(p.temperatureK);
  const double leff = geom.length;
  const double w = geom.width;

  // Threshold with DIBL.
  const double vth = p.vth0 - p.diblAt(leff) * vds;

  // BSIM4-style unified effective overdrive: smooth ramp through the
  // subthreshold region.
  const double nphit = p.nfactor * phit;
  const double vgsteff = nphit * softplus((vgs - vth) / nphit);

  // Vertical-field mobility degradation.
  const double mueff = p.u0 / (1.0 + p.ua * vgsteff + p.ub * vgsteff * vgsteff);

  // Velocity saturation.  The +2*phit keeps Vdsat from collapsing below the
  // thermal voltage in weak inversion (BSIM4's subthreshold-consistent
  // Vdsat); without it the subthreshold slope would erroneously double.
  const double esat = 2.0 * p.vsat / mueff;
  const double esatL = esat * leff;
  const double vgst2 = vgsteff + 2.0 * phit;
  const double vdsat = esatL * vgst2 / (esatL + vgst2);

  // Smooth Vdseff (BSIM4 delta-smoothing).
  constexpr double kDelta = 0.01;
  const double a = vdsat - vds - kDelta;
  const double vdseff =
      vdsat - 0.5 * (a + std::sqrt(a * a + 4.0 * kDelta * vdsat));

  // Bulk-charge-free triode/saturation current with velocity saturation.
  const double vb = vgsteff + 2.0 * phit;  // effective bulk-charge voltage
  const double ids0 = mueff * p.cox * (w / leff) * vgsteff *
                      (1.0 - vdseff / (2.0 * vb)) * vdseff /
                      (1.0 + vdseff / esatL);

  // Channel-length modulation.
  const double va = p.pclm * (esatL + vdsat);
  double id = ids0 * (1.0 + std::max(vds - vdseff, 0.0) / va);

  // Series resistance (first-order, non-iterative: BSIM's Rds0 current
  // degradation form).
  if (p.rdsw > 0.0 && id > 0.0) {
    const double rds = p.rdsw / w;
    const double gds0 = id / std::max(vdseff, 1e-9);
    id = id / (1.0 + gds0 * rds);
  }

  Operating op;
  op.id = id;
  // Channel-end charge densities for the trapezoidal C-V partition.
  op.qSrcAreal = p.cox * vgsteff;
  const double vgdteff = nphit * softplus((vgs - vdseff - vth) / nphit);
  op.qDrnAreal = p.cox * vgdteff;
  return op;
}

MosfetEvaluation BsimLite::evaluate(const DeviceGeometry& geom, double vgs,
                                    double vds) const {
  const bool reversed = vds < 0.0;
  const double cvgs = reversed ? vgs - vds : vgs;
  const double cvds = reversed ? -vds : vds;

  const Operating op = operatingPoint(geom, cvgs, cvds);

  const double w = geom.width;
  const double l = geom.length;

  const double qChanSrc = w * l * (2.0 * op.qSrcAreal + op.qDrnAreal) / 6.0;
  const double qChanDrn = w * l * (op.qSrcAreal + 2.0 * op.qDrnAreal) / 6.0;

  const double cov = params_.cgo * w;
  const double vgd = cvgs - cvds;
  const double qOvS = cov * cvgs;
  const double qOvD = cov * vgd;

  MosfetEvaluation eval;
  eval.id = op.id;
  eval.qg = qChanSrc + qChanDrn + qOvS + qOvD;
  eval.qs = -qChanSrc - qOvS;
  eval.qd = -qChanDrn - qOvD;

  if (reversed) {
    eval.id = -eval.id;
    std::swap(eval.qs, eval.qd);
  }
  return eval;
}

}  // namespace vsstat::models
