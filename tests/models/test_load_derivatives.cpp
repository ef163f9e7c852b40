// evaluateLoad contract tests.  The VS model's evaluate() is the value part
// of its analytic load chain, so a load's values equal evaluate() bit for
// bit, and its analytic derivatives must agree with central finite
// differences of evaluate() across all operating regions (weak/strong
// inversion, linear/saturation, reversed vds, and sub-picoampere leakage
// through the series-resistance solve).  The generic finite-difference
// fallback must match the element's historic forward-difference numerics
// exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "models/bsim_lite.hpp"
#include "models/device.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"

namespace vsstat::models {
namespace {

constexpr double kStep = 1e-3;

/// Central-difference reference for every derivative in MosfetLoadEvaluation.
MosfetLoadEvaluation centralReference(const MosfetModel& model,
                                      const DeviceGeometry& geom, double vgs,
                                      double vds) {
  const double h = 1e-5;
  const auto gp = model.evaluate(geom, vgs + h, vds);
  const auto gm = model.evaluate(geom, vgs - h, vds);
  const auto dp = model.evaluate(geom, vgs, vds + h);
  const auto dm = model.evaluate(geom, vgs, vds - h);
  MosfetLoadEvaluation ref;
  ref.at = model.evaluate(geom, vgs, vds);
  ref.didVgs = (gp.id - gm.id) / (2.0 * h);
  ref.didVds = (dp.id - dm.id) / (2.0 * h);
  ref.dqgVgs = (gp.qg - gm.qg) / (2.0 * h);
  ref.dqgVds = (dp.qg - dm.qg) / (2.0 * h);
  ref.dqdVgs = (gp.qd - gm.qd) / (2.0 * h);
  ref.dqdVds = (dp.qd - dm.qd) / (2.0 * h);
  ref.dqsVgs = (gp.qs - gm.qs) / (2.0 * h);
  ref.dqsVds = (dp.qs - dm.qs) / (2.0 * h);
  return ref;
}

void expectClose(double actual, double reference, double scale,
                 const char* what, double vgs, double vds) {
  // Derivatives feed a Newton iteration: a few percent of the dominant
  // scale is ample accuracy (finite differences themselves are no better).
  const double tol = 0.02 * scale + 1e-12;
  EXPECT_NEAR(actual, reference, tol)
      << what << " at vgs=" << vgs << " vds=" << vds;
}

TEST(VsLoadDerivatives, MatchCentralDifferencesEverywhere) {
  const VsModel nmos(defaultVsNmos());
  const DeviceGeometry geom = geometryNm(300, 40);

  for (double vgs : {-0.2, 0.0, 0.25, 0.45, 0.7, 0.9}) {
    for (double vds : {-0.9, -0.3, -0.05, 0.0, 0.05, 0.45, 0.9}) {
      const MosfetLoadEvaluation ev = nmos.evaluateLoad(geom, vgs, vds, kStep);
      const MosfetLoadEvaluation ref = centralReference(nmos, geom, vgs, vds);

      // Values are evaluate()'s own: one chain, bit for bit.
      EXPECT_EQ(ev.at.id, ref.at.id) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(ev.at.qg, ref.at.qg) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(ev.at.qd, ref.at.qd) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(ev.at.qs, ref.at.qs) << "vgs=" << vgs << " vds=" << vds;

      const double gScale =
          std::max({std::fabs(ref.didVgs), std::fabs(ref.didVds), 1e-9});
      expectClose(ev.didVgs, ref.didVgs, gScale, "didVgs", vgs, vds);
      expectClose(ev.didVds, ref.didVds, gScale, "didVds", vgs, vds);

      const double qScale =
          std::max({std::fabs(ref.dqgVgs), std::fabs(ref.dqgVds),
                    std::fabs(ref.dqdVgs), std::fabs(ref.dqdVds),
                    std::fabs(ref.dqsVgs), std::fabs(ref.dqsVds), 1e-18});
      expectClose(ev.dqgVgs, ref.dqgVgs, qScale, "dqgVgs", vgs, vds);
      expectClose(ev.dqgVds, ref.dqgVds, qScale, "dqgVds", vgs, vds);
      expectClose(ev.dqdVgs, ref.dqdVgs, qScale, "dqdVgs", vgs, vds);
      expectClose(ev.dqdVds, ref.dqdVds, qScale, "dqdVds", vgs, vds);
      expectClose(ev.dqsVgs, ref.dqsVgs, qScale, "dqsVgs", vgs, vds);
      expectClose(ev.dqsVds, ref.dqsVds, qScale, "dqsVds", vgs, vds);
    }
  }
}

TEST(VsLoadDerivatives, PmosMatchesToo) {
  const VsModel pmos(defaultVsPmos());
  const DeviceGeometry geom = geometryNm(600, 40);
  for (double vgs : {0.0, 0.45, 0.9}) {
    for (double vds : {0.05, 0.45, 0.9}) {
      const MosfetLoadEvaluation ev = pmos.evaluateLoad(geom, vgs, vds, kStep);
      const MosfetLoadEvaluation ref = centralReference(pmos, geom, vgs, vds);
      const double gScale =
          std::max({std::fabs(ref.didVgs), std::fabs(ref.didVds), 1e-9});
      expectClose(ev.didVgs, ref.didVgs, gScale, "didVgs", vgs, vds);
      expectClose(ev.didVds, ref.didVds, gScale, "didVds", vgs, vds);
    }
  }
}

TEST(VsLoadDerivatives, SubPicoampLoadFollowsItsConductance) {
  // Deep off-state at tiny vds the intrinsic current is below the
  // series-resistance solve's absolute tolerance (1e-13 A), so the solve
  // accepts its initial guess i = 0.  The load must still report the
  // current evaluated there -- linear in vds, Id ~ gds * vds -- not 0 A
  // beside a nonzero conductance.  Scalar chain and fast bank alike.
  const VsModel nmos(defaultVsNmos());
  const DeviceGeometry geom = geometryNm(300, 40);
  const std::vector<double> vgs = {-0.2, -0.2};
  const std::vector<double> vds = {1e-5, 1e-4};
  const auto bank =
      makeUniformLoadBank(nmos, geom, vgs.size(), NumericsMode::fast);
  std::vector<MosfetLoadEvaluation> fast(vgs.size());
  bank->evaluateLoadBatch(vgs, vds, kStep, fast);
  for (std::size_t i = 0; i < vgs.size(); ++i) {
    for (const MosfetLoadEvaluation& ev :
         {nmos.evaluateLoad(geom, vgs[i], vds[i], kStep), fast[i]}) {
      EXPECT_GT(ev.at.id, 0.0) << "vds=" << vds[i];
      EXPECT_NEAR(ev.at.id, ev.didVds * vds[i], 0.01 * ev.at.id)
          << "vds=" << vds[i];
    }
  }
}

TEST(GenericLoadDerivatives, FallbackMatchesForwardDifferences) {
  // BsimLite has no analytic override; the default must reproduce the
  // engine's historic forward-difference numerics bit-for-bit.
  const BsimLite model(defaultBsimNmos());
  const DeviceGeometry geom = geometryNm(300, 40);
  const double vgs = 0.7, vds = 0.4;

  const MosfetLoadEvaluation ev = model.evaluateLoad(geom, vgs, vds, kStep);
  const auto e0 = model.evaluate(geom, vgs, vds);
  const auto eg = model.evaluate(geom, vgs + kStep, vds);
  const auto ed = model.evaluate(geom, vgs, vds + kStep);
  EXPECT_DOUBLE_EQ(ev.at.id, e0.id);
  EXPECT_DOUBLE_EQ(ev.didVgs, (eg.id - e0.id) / kStep);
  EXPECT_DOUBLE_EQ(ev.didVds, (ed.id - e0.id) / kStep);
  EXPECT_DOUBLE_EQ(ev.dqgVgs, (eg.qg - e0.qg) / kStep);
  EXPECT_DOUBLE_EQ(ev.dqsVds, (ed.qs - e0.qs) / kStep);
}

}  // namespace
}  // namespace vsstat::models
