// Alpha-power-law baseline model: region behaviour, smoothness at the
// Vdsat seam, symmetry, charge bookkeeping, and the strong-inversion fit
// to the golden model.
#include <gtest/gtest.h>

#include <cmath>

#include "extract/fit.hpp"
#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/geometry.hpp"
#include "util/error.hpp"

namespace vsstat::models {
namespace {

const DeviceGeometry kGeom = geometryNm(300, 40);

TEST(AlphaPower, RejectsBadParameters) {
  AlphaPowerParams p;
  p.kSat = 0.0;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
  p = AlphaPowerParams{};
  p.alphaSat = 2.5;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
  p = AlphaPowerParams{};
  p.vSmooth = 0.0;
  EXPECT_THROW(AlphaPowerModel{p}, InvalidArgumentError);
}

TEST(AlphaPower, OffStateCurrentIsNegligible) {
  const AlphaPowerModel m(defaultAlphaNmos());
  // No subthreshold conduction by design: far below VT the smoothed
  // overdrive current collapses to numerical noise.
  const double ioff = m.drainCurrent(kGeom, 0.0, 0.9);
  const double ion = m.drainCurrent(kGeom, 0.9, 0.9);
  EXPECT_GT(ion, 1e-5);
  EXPECT_LT(ioff, 1e-12 * ion * 1e6);  // < 1e-6 of on-current
}

TEST(AlphaPower, SaturationCurrentFollowsPowerLaw) {
  AlphaPowerParams p = defaultAlphaNmos();
  p.delta0 = 0.0;  // isolate the pure power law
  const AlphaPowerModel m(p);
  // Deep saturation, far above VT so the softplus smoothing is inactive:
  // Id ratio between two overdrives must equal the overdrive ratio ^ alpha.
  const double vds = 0.9;
  const double id1 = m.drainCurrent(kGeom, p.vth0 + 0.30, vds);
  const double id2 = m.drainCurrent(kGeom, p.vth0 + 0.60, vds);
  EXPECT_NEAR(id2 / id1, std::pow(2.0, p.alphaSat), 0.01);
}

TEST(AlphaPower, MonotoneInGateAndDrainBias) {
  const AlphaPowerModel m(defaultAlphaNmos());
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 0.9001; vgs += 0.05) {
    const double id = m.drainCurrent(kGeom, vgs, 0.9);
    EXPECT_GE(id, prev) << "vgs = " << vgs;
    prev = id;
  }
  prev = -1.0;
  for (double vds = 0.0; vds <= 0.9001; vds += 0.05) {
    const double id = m.drainCurrent(kGeom, 0.9, vds);
    EXPECT_GE(id, prev - 1e-15) << "vds = " << vds;
    prev = id;
  }
}

TEST(AlphaPower, C1AcrossVdsatSeam) {
  // Numeric derivative dId/dVds must be continuous through Vds = Vdsat:
  // compare one-sided slopes straddling the seam.
  AlphaPowerParams p = defaultAlphaNmos();
  p.delta0 = 0.0;
  const AlphaPowerModel m(p);
  const double vgs = 0.8;
  const double vov = vgs - p.vth0;
  const double vdsat = p.kV * std::pow(vov, 0.5 * p.alphaSat);
  ASSERT_LT(vdsat, 0.9);

  constexpr double h = 1e-6;
  const double below = (m.drainCurrent(kGeom, vgs, vdsat - h) -
                        m.drainCurrent(kGeom, vgs, vdsat - 2.0 * h)) / h;
  const double above = (m.drainCurrent(kGeom, vgs, vdsat + 2.0 * h) -
                        m.drainCurrent(kGeom, vgs, vdsat + h)) / h;
  const double scale = m.drainCurrent(kGeom, vgs, 0.9) / 0.9;  // A/V scale
  EXPECT_NEAR(below, above, 1e-3 * scale + 1e-4 * std::fabs(below));
}

TEST(AlphaPower, SourceDrainSymmetry) {
  const AlphaPowerModel m(defaultAlphaNmos());
  // Id(vgs, vds) = -Id(vgs - vds, -vds): terminal-role reversal.
  const double fwd = m.drainCurrent(kGeom, 0.7, 0.4);
  const double rev = m.drainCurrent(kGeom, 0.7 - 0.4, -0.4);
  EXPECT_NEAR(fwd, -rev, 1e-15 + 1e-12 * std::fabs(fwd));
}

TEST(AlphaPower, ChargesSumToZero) {
  const AlphaPowerModel m(defaultAlphaNmos());
  for (double vgs : {0.0, 0.3, 0.6, 0.9}) {
    for (double vds : {0.0, 0.3, 0.9, -0.4}) {
      const MosfetEvaluation e = m.evaluate(kGeom, vgs, vds);
      EXPECT_NEAR(e.qg + e.qd + e.qs, 0.0, 1e-20)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST(AlphaPower, GateChargeGrowsWithGateBias) {
  const AlphaPowerModel m(defaultAlphaNmos());
  double prev = -1e30;
  for (double vgs = 0.0; vgs <= 0.9001; vgs += 0.1) {
    const double qg = m.evaluate(kGeom, vgs, 0.45).qg;
    EXPECT_GT(qg, prev) << "vgs = " << vgs;
    prev = qg;
  }
}

TEST(AlphaPower, PmosCardDrivesCanonicalCurrent) {
  const AlphaPowerModel pmos(defaultAlphaPmos());
  // Canonical polarity: positive vgs/vds produce positive canonical id;
  // the circuit element applies the sign flips.
  EXPECT_GT(pmos.drainCurrent(kGeom, 0.9, 0.9), 0.0);
  EXPECT_LT(pmos.drainCurrent(kGeom, 0.9, 0.9),
            AlphaPowerModel(defaultAlphaNmos()).drainCurrent(kGeom, 0.9, 0.9));
}

TEST(AlphaPower, CloneIsIndependent) {
  AlphaPowerModel m(defaultAlphaNmos());
  const auto copy = m.clone();
  m.mutableParams().kSat *= 2.0;
  EXPECT_NE(m.drainCurrent(kGeom, 0.9, 0.9),
            copy->drainCurrent(kGeom, 0.9, 0.9));
}

TEST(AlphaPowerFit, TracksGoldenStrongInversion) {
  const BsimLite golden(defaultBsimNmos());
  const extract::AlphaFitResult fit =
      extract::fitAlphaPowerToGolden(defaultAlphaNmos(), golden, kGeom);
  EXPECT_TRUE(fit.converged);
  // The alpha-power law is a 6-parameter empirical curve: expect a usable
  // (not perfect) strong-inversion match.
  EXPECT_LT(fit.rmsRelIdVd, 0.15);
  EXPECT_LT(std::fabs(fit.relCggError), 0.10);

  // Idsat anchor: the fitted card lands near the golden on-current.
  const AlphaPowerModel fitted(fit.card);
  const double idFit = fitted.drainCurrent(kGeom, 0.9, 0.9);
  const double idGold = golden.drainCurrent(kGeom, 0.9, 0.9);
  EXPECT_NEAR(idFit / idGold, 1.0, 0.05);
}

TEST(AlphaPowerFit, PmosAlsoFits) {
  const BsimLite golden(defaultBsimPmos());
  const extract::AlphaFitResult fit =
      extract::fitAlphaPowerToGolden(defaultAlphaPmos(), golden, kGeom);
  EXPECT_TRUE(fit.converged);
  EXPECT_LT(fit.rmsRelIdVd, 0.15);
}

TEST(AlphaPowerFit, RmsReportsSplitAtTheScanBoundary) {
  // rmsRelIdVg covers exactly the two-bias Id-Vg scan from 0.45 Vdd and
  // rmsRelIdVd exactly the three-gate-bias Id-Vd family, recomputed here
  // from the fitted and golden cards' drain currents.  The nominal fit's
  // grid has 50 mV pitches and a 50 mV linear-region drain bias.
  constexpr double kPitch = 0.05;
  const extract::FitOptions opt;
  const struct {
    AlphaPowerParams seed;
    BsimParams golden;
  } cases[] = {{defaultAlphaNmos(), defaultBsimNmos()},
               {defaultAlphaPmos(), defaultBsimPmos()}};
  for (const auto& c : cases) {
    const BsimLite golden(c.golden);
    const extract::AlphaFitResult fit =
        extract::fitAlphaPowerToGolden(c.seed, golden, kGeom, opt);
    const AlphaPowerModel fitted(fit.card);
    const auto relErrSq = [&](double vgs, double vds) {
      const double e = fitted.drainCurrent(kGeom, vgs, vds) /
                           golden.drainCurrent(kGeom, vgs, vds) -
                       1.0;
      return e * e;
    };
    double sumVg = 0.0;
    int nVg = 0;
    for (double vgs = 0.45 * opt.vdd; vgs <= opt.vdd + 1e-9;
         vgs += kPitch) {
      sumVg += relErrSq(vgs, kPitch) + relErrSq(vgs, opt.vdd);
      nVg += 2;
    }
    double sumVd = 0.0;
    int nVd = 0;
    for (const double frac : {0.6, 0.8, 1.0}) {
      for (double vds = kPitch; vds <= opt.vdd + 1e-9; vds += kPitch) {
        sumVd += relErrSq(frac * opt.vdd, vds);
        ++nVd;
      }
    }
    EXPECT_NEAR(fit.rmsRelIdVg, std::sqrt(sumVg / nVg), 1e-12);
    EXPECT_NEAR(fit.rmsRelIdVd, std::sqrt(sumVd / nVd), 1e-12);
  }
}

}  // namespace
}  // namespace vsstat::models
