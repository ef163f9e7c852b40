#include "core/statistical_vs.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "measure/device_metrics.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace vsstat::core {
namespace {

using models::DeviceType;
using models::geometryNm;

/// Shared fixture: characterize once (analytic golden variance keeps it
/// fast and noise-free) and reuse across tests.
class StatisticalVsKitTest : public ::testing::Test {
 protected:
  static const StatisticalVsKit& kit() {
    static const StatisticalVsKit k = [] {
      CharacterizeOptions opt;
      opt.analyticGoldenVariance = true;
      return StatisticalVsKit::characterize(extract::GoldenKit::default40nm(),
                                            opt);
    }();
    return k;
  }
};

TEST_F(StatisticalVsKitTest, CardsHaveCorrectPolarity) {
  EXPECT_EQ(kit().nominal(DeviceType::Nmos).type, DeviceType::Nmos);
  EXPECT_EQ(kit().nominal(DeviceType::Pmos).type, DeviceType::Pmos);
  EXPECT_DOUBLE_EQ(kit().vdd(), 0.9);
}

TEST_F(StatisticalVsKitTest, AlphasLandInPaperBallpark) {
  // Paper Table II: a1 = 2.3/2.86 V nm, a2 = a3 ~ 3.7 nm, a4 ~ 900/780.
  const auto& n = kit().alphas(DeviceType::Nmos);
  EXPECT_GT(n.aVt0, 1.2);
  EXPECT_LT(n.aVt0, 3.5);
  EXPECT_GT(n.aLeff, 2.0);
  EXPECT_LT(n.aLeff, 5.5);
  EXPECT_DOUBLE_EQ(n.aLeff, n.aWeff);  // alpha2 == alpha3 tie
  EXPECT_GE(n.aMu, 0.0);
  const auto& p = kit().alphas(DeviceType::Pmos);
  EXPECT_GT(p.aVt0, n.aVt0 * 0.8);  // PMOS mismatch >= NMOS (RDF heavier)
}

TEST_F(StatisticalVsKitTest, AlphasMatchRecorded) {
  // Pins the Table II path end to end: golden targets, VS sensitivities on
  // the simulator's own load chain, and the BPV solve.  Any change to the
  // VS equations, the targets or the solve moves these.
  const auto expectAlphas = [](const models::PelgromAlphas& got,
                               const models::PelgromAlphas& want,
                               const char* type) {
    const auto near = [&](double g, double w, const char* name) {
      EXPECT_NEAR(g, w, 1e-4 * std::fabs(w)) << type << " " << name;
    };
    near(got.aVt0, want.aVt0, "a1(VT0)");
    near(got.aLeff, want.aLeff, "a2(Leff)");
    near(got.aWeff, want.aWeff, "a3(Weff)");
    near(got.aMu, want.aMu, "a4(mu)");
    near(got.aCinv, want.aCinv, "a5(Cinv)");
  };
  expectAlphas(kit().alphas(DeviceType::Nmos),
               {2.22037643, 3.74057952, 3.74057952, 413.864844, 0.3}, "NMOS");
  expectAlphas(kit().alphas(DeviceType::Pmos),
               {2.57129397, 3.72823467, 3.72823467, 826.823089, 0.82},
               "PMOS");
}

TEST_F(StatisticalVsKitTest, SigmasFollowPelgrom) {
  const auto s1 = kit().sigmas(DeviceType::Nmos, geometryNm(600, 40));
  const auto s2 = kit().sigmas(DeviceType::Nmos, geometryNm(2400, 160));
  EXPECT_NEAR(s1.sVt0 / s2.sVt0, 4.0, 1e-9);
}

TEST_F(StatisticalVsKitTest, MakeInstanceVariesDevice) {
  stats::Rng rng(5);
  const auto geom = geometryNm(600, 40);
  stats::MomentAccumulator acc;
  for (int i = 0; i < 400; ++i) {
    const auto inst = kit().makeInstance(DeviceType::Nmos, geom, rng);
    acc.add(measure::idsat(*inst.model, inst.geometry, 0.9));
  }
  EXPECT_GT(acc.stddev() / acc.mean(), 0.015);
  EXPECT_LT(acc.stddev() / acc.mean(), 0.10);
}

TEST_F(StatisticalVsKitTest, ValidationSigmaMatchesGoldenKit) {
  // The paper's Table III acceptance: VS-model MC sigma tracks the golden
  // kit's sigma at validation geometries.  15% tolerance covers the
  // documented cross-model sensitivity gap plus MC noise.
  const extract::GoldenKit golden = extract::GoldenKit::default40nm();
  for (const auto& geomNmPair :
       {std::pair{1500.0, 40.0}, std::pair{600.0, 40.0}}) {
    const auto geom = geometryNm(geomNmPair.first, geomNmPair.second);
    const auto goldenVar =
        extract::analyticGoldenVariance(golden, DeviceType::Nmos, geom);

    stats::Rng rng(17);
    stats::MomentAccumulator idsat, ioff;
    for (int i = 0; i < 3000; ++i) {
      const auto inst = kit().makeInstance(DeviceType::Nmos, geom, rng);
      idsat.add(measure::idsat(*inst.model, inst.geometry, 0.9));
      ioff.add(measure::log10Ioff(*inst.model, inst.geometry, 0.9));
    }
    EXPECT_NEAR(idsat.stddev(), std::sqrt(goldenVar.varIdsat),
                0.15 * std::sqrt(goldenVar.varIdsat))
        << "W=" << geomNmPair.first;
    EXPECT_NEAR(ioff.stddev(), std::sqrt(goldenVar.varLog10Ioff),
                0.10 * std::sqrt(goldenVar.varLog10Ioff))
        << "W=" << geomNmPair.first;
  }
}

TEST_F(StatisticalVsKitTest, ProvidersAreConstructible) {
  EXPECT_NE(kit().makeProvider(stats::Rng(1)), nullptr);
  EXPECT_NE(kit().makeNominalProvider(), nullptr);
}

TEST_F(StatisticalVsKitTest, SummaryMentionsAllAlphas) {
  const std::string s = kit().summary();
  EXPECT_NE(s.find("a1(VT0)"), std::string::npos);
  EXPECT_NE(s.find("a5(Cinv)"), std::string::npos);
  EXPECT_NE(s.find("NMOS"), std::string::npos);
  EXPECT_NE(s.find("PMOS"), std::string::npos);
}

TEST(StatisticalVsKitCtor, RejectsSwappedPolarities) {
  EXPECT_THROW(StatisticalVsKit(models::defaultVsPmos(),
                                models::defaultVsNmos(),
                                models::PelgromAlphas{},
                                models::PelgromAlphas{}, 0.9),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::core
