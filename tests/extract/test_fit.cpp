#include "extract/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "measure/device_metrics.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {
namespace {

using models::BsimLite;
using models::geometryNm;
using models::VsModel;

TEST(VsFit, SelfFitIsNearPerfect) {
  // Fitting the VS model to itself must keep errors at numerical noise.
  const models::VsParams truth = models::defaultVsNmos();
  const VsModel golden(truth);
  const IvFitResult r =
      fitVsToGolden(truth, golden, geometryNm(300, 40));
  EXPECT_LT(r.rmsLogIdVg, 1e-4);
  EXPECT_LT(r.rmsRelIdVd, 1e-4);
  EXPECT_LT(std::fabs(r.relCggError), 1e-4);
}

TEST(VsFit, CrossModelFitReachesFigureOneQuality) {
  // Fig. 1: VS tracks the golden kit across all regions.  Cross-family
  // fits can't be perfect; a few percent RMS is the expected quality.
  const BsimLite golden(models::defaultBsimNmos());
  const IvFitResult r = fitVsToGolden(models::defaultVsNmos(), golden,
                                      geometryNm(300, 40));
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.rmsLogIdVg, 0.25);     // < ~25% in log-current space
  EXPECT_LT(r.rmsRelIdVd, 0.10);     // < 10% on output curves
  EXPECT_LT(std::fabs(r.relCggError), 0.05);
}

TEST(VsFit, Fig1CardsMatchRecorded) {
  // The nominal Fig. 1 cards, recorded to nine digits; every fitted field
  // must stay within 1e-3 of them.  The Cgg anchor is the BPV target's
  // bias (Vdd, 0): measuring it at (Vdd, Vdd) instead moves cinv, vxo and
  // mu by ~3 % and fails here.
  struct Recorded {
    models::VsParams seed;
    models::BsimParams golden;
    double vt0, delta0, n0, vxo, mu, beta, cinv;
  };
  const Recorded cases[] = {
      {models::defaultVsNmos(), models::defaultBsimNmos(), 0.458165171,
       0.116006231, 1.22, 64654.5622, 0.0271866631, 1.86279190,
       0.0183755325},
      {models::defaultVsPmos(), models::defaultBsimPmos(), 0.478771636,
       0.135956630, 1.22, 48778.4668, 0.0178685214, 1.92827999,
       0.0176880160},
  };
  for (const Recorded& c : cases) {
    const BsimLite golden(c.golden);
    const IvFitResult r = fitVsToGolden(c.seed, golden, geometryNm(300, 40));
    const auto expectNear = [](double got, double want, const char* name) {
      EXPECT_NEAR(got, want, 1e-3 * std::fabs(want)) << name;
    };
    expectNear(r.card.vt0, c.vt0, "vt0");
    expectNear(r.card.delta0, c.delta0, "delta0");
    expectNear(r.card.n0, c.n0, "n0");
    expectNear(r.card.vxo, c.vxo, "vxo");
    expectNear(r.card.mu, c.mu, "mu");
    expectNear(r.card.beta, c.beta, "beta");
    expectNear(r.card.cinv, c.cinv, "cinv");
    EXPECT_TRUE(r.converged);
  }
}

TEST(VsFit, AnchorsPinIdsatAndIoff) {
  const BsimLite golden(models::defaultBsimNmos());
  const auto geom = geometryNm(300, 40);
  const IvFitResult r =
      fitVsToGolden(models::defaultVsNmos(), golden, geom);
  const VsModel fitted(r.card);
  const double idsatErr =
      measure::idsat(fitted, geom, 0.9) / measure::idsat(golden, geom, 0.9) -
      1.0;
  const double ioffErr = measure::log10Ioff(fitted, geom, 0.9) -
                         measure::log10Ioff(golden, geom, 0.9);
  EXPECT_LT(std::fabs(idsatErr), 0.05);  // Idsat within 5%
  EXPECT_LT(std::fabs(ioffErr), 0.05);   // Ioff within ~12%
}

TEST(VsFit, PmosFitAlsoConverges) {
  const BsimLite golden(models::defaultBsimPmos());
  const IvFitResult r = fitVsToGolden(models::defaultVsPmos(), golden,
                                      geometryNm(300, 40));
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.rmsRelIdVd, 0.12);
}

TEST(VsFit, FittedCardStaysInPhysicalBounds) {
  const BsimLite golden(models::defaultBsimNmos());
  const IvFitResult r = fitVsToGolden(models::defaultVsNmos(), golden,
                                      geometryNm(300, 40));
  EXPECT_GT(r.card.vt0, 0.15);
  EXPECT_LT(r.card.vt0, 0.65);
  EXPECT_GE(r.card.n0, 1.0);
  EXPECT_GT(r.card.vxo, 0.0);
  EXPECT_GT(r.card.mu, 0.0);
  EXPECT_GT(r.card.beta, 1.0);
}

TEST(VsFit, RejectsNonPositiveVdd) {
  const BsimLite golden(models::defaultBsimNmos());
  FitOptions opt;
  opt.vdd = 0.0;
  EXPECT_THROW((void)fitVsToGolden(models::defaultVsNmos(), golden,
                             geometryNm(300, 40), opt),
               vsstat::InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::extract
