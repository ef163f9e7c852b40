#include "models/alpha_power.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vsstat::models {

AlphaPowerParams defaultAlphaNmos() { return AlphaPowerParams{}; }

AlphaPowerParams defaultAlphaPmos() {
  AlphaPowerParams p;
  p.type = DeviceType::Pmos;
  p.vth0 = 0.33;
  p.kSat = 0.7e3;  // weaker holes
  p.alphaSat = 1.35;
  return p;
}

AlphaPowerModel::AlphaPowerModel(AlphaPowerParams params) : params_(params) {
  require(params_.kSat > 0.0 && params_.kV > 0.0,
          "AlphaPowerModel: kSat and kV must be positive");
  require(params_.alphaSat >= 1.0 && params_.alphaSat <= 2.0,
          "AlphaPowerModel: alphaSat must lie in [1, 2]");
  require(params_.vSmooth > 0.0, "AlphaPowerModel: vSmooth must be positive");
}

double AlphaPowerModel::idPerWidth(double vgs, double vds) const {
  const AlphaPowerParams& p = params_;
  const double vth = p.vth0 - p.delta0 * vds;
  // Softplus-smoothed overdrive keeps the model C1 through threshold.
  const double vov = p.vSmooth * softplus((vgs - vth) / p.vSmooth);
  if (vov <= 0.0) return 0.0;

  const double idsat = p.kSat * std::pow(vov, p.alphaSat);
  const double vdsat = p.kV * std::pow(vov, 0.5 * p.alphaSat);
  const double v = vds / vdsat;
  // Sakurai-Newton parabola meets the flat saturation branch with matching
  // value and slope at v = 1 (both chain-rule terms vanish there), so the
  // piecewise form is exactly C1.
  if (v >= 1.0) return idsat;
  return idsat * (2.0 - v) * v;
}

MosfetEvaluation AlphaPowerModel::evaluate(const DeviceGeometry& geom,
                                           double vgs, double vds) const {
  const bool reversed = vds < 0.0;
  const double cvgs = reversed ? vgs - vds : vgs;
  const double cvds = reversed ? -vds : vds;

  const AlphaPowerParams& p = params_;
  const double w = geom.width;
  const double l = geom.length;

  const double vth = p.vth0 - p.delta0 * cvds;
  const double vov = p.vSmooth * softplus((cvgs - vth) / p.vSmooth);
  const double vdsat = p.kV * std::pow(std::max(vov, 1e-12), 0.5 * p.alphaSat);

  // Saturation metric: smooth 0 -> 1 transition of vds/vdsat (same family
  // of blending as the VS Fsat, exponent fixed at 4).
  const double v = cvds / std::max(vdsat, 1e-12);
  const double sat = v / std::pow(1.0 + v * v * v * v, 0.25);

  // Meyer channel charge: magnitude cg*W*L*vov, drain share sliding from
  // 1/2 (triode) to 2/5 (saturation).
  const double qChan = p.cg * w * l * vov;
  const double drainShare = 0.5 - 0.1 * sat;
  const double qChanDrn = drainShare * qChan;
  const double qChanSrc = (1.0 - drainShare) * qChan;

  // Overlap/fringe parasitics (linear, per gate edge).
  const double cov = p.cof * w;
  const double vgd = cvgs - cvds;
  const double qOvS = cov * cvgs;
  const double qOvD = cov * vgd;

  MosfetEvaluation eval;
  eval.id = w * idPerWidth(cvgs, cvds);
  eval.qg = qChanSrc + qChanDrn + qOvS + qOvD;
  eval.qs = -qChanSrc - qOvS;
  eval.qd = -qChanDrn - qOvD;

  if (reversed) {
    eval.id = -eval.id;
    std::swap(eval.qs, eval.qd);
  }
  return eval;
}

std::unique_ptr<MosfetModel> AlphaPowerModel::clone() const {
  return std::make_unique<AlphaPowerModel>(params_);
}

bool AlphaPowerModel::assignFrom(const MosfetModel& other) {
  const auto* o = dynamic_cast<const AlphaPowerModel*>(&other);
  if (o == nullptr) return false;
  params_ = o->params_;
  return true;
}

}  // namespace vsstat::models
