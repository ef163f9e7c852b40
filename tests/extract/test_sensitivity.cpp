#include "extract/sensitivity.hpp"

#include <gtest/gtest.h>

#include "models/vs_params.hpp"

namespace vsstat::extract {
namespace {

using models::geometryNm;

class SensitivityTest : public ::testing::Test {
 protected:
  models::VsParams card_ = models::defaultVsNmos();
  models::DeviceGeometry geom_ = geometryNm(600, 40);
  linalg::Matrix s_ = targetSensitivities(card_, geom_, 0.9);

  double at(Target t, Parameter p) const {
    return s_(static_cast<std::size_t>(t), static_cast<std::size_t>(p));
  }
};

TEST_F(SensitivityTest, ShapeIsTargetsByParameters) {
  EXPECT_EQ(s_.rows(), kTargetCount);
  EXPECT_EQ(s_.cols(), kParameterCount);
}

TEST_F(SensitivityTest, SignsMatchDevicePhysics) {
  // Higher VT0 -> less drive, exponentially less leakage.
  EXPECT_LT(at(Target::Idsat, Parameter::Vt0), 0.0);
  EXPECT_LT(at(Target::Log10Ioff, Parameter::Vt0), 0.0);
  // Wider device -> more of everything.
  EXPECT_GT(at(Target::Idsat, Parameter::Weff), 0.0);
  EXPECT_GT(at(Target::Cgg, Parameter::Weff), 0.0);
  // Longer channel -> less DIBL -> less leakage; more gate area -> more Cgg.
  EXPECT_LT(at(Target::Log10Ioff, Parameter::Leff), 0.0);
  EXPECT_GT(at(Target::Cgg, Parameter::Leff), 0.0);
  // More mobility -> more drive (incl. Eq. 5 vxo pull).
  EXPECT_GT(at(Target::Idsat, Parameter::Mu), 0.0);
  // More Cinv -> more charge and capacitance.
  EXPECT_GT(at(Target::Idsat, Parameter::Cinv), 0.0);
  EXPECT_GT(at(Target::Cgg, Parameter::Cinv), 0.0);
}

TEST_F(SensitivityTest, Log10IoffVt0SlopeMatchesSubthresholdTheory) {
  // d(log10 Ioff)/d(VT0) ~ -1/(n phit ln 10): tens of decades per volt.
  const double slope = at(Target::Log10Ioff, Parameter::Vt0);
  EXPECT_LT(slope, -8.0);
  EXPECT_GT(slope, -30.0);
}

TEST_F(SensitivityTest, MobilitySensitivityIncludesVxoCoupling) {
  // Without the Eq. (5) coupling, dIdsat/dmu would be much smaller (the
  // device is quasi-ballistic).  Verify the coupled sensitivity exceeds a
  // pure-Vdsat effect by computing the decoupled version.
  models::VsParams decoupled = card_;
  decoupled.alphaFit = 0.0;
  decoupled.gammaFit = 0.0;
  decoupled.lambdaMfp = 1.0;  // B -> ~1 so (1-B) term vanishes too
  const linalg::Matrix sDecoupled =
      targetSensitivities(decoupled, geom_, 0.9);
  EXPECT_GT(at(Target::Idsat, Parameter::Mu),
            2.0 * sDecoupled(0, static_cast<std::size_t>(Parameter::Mu)));
}

TEST_F(SensitivityTest, StepsScaleWithGeometry) {
  const auto steps = sensitivitySteps(card_, geom_);
  EXPECT_NEAR(steps[static_cast<std::size_t>(Parameter::Leff)],
              0.01 * geom_.length, 1e-18);
  EXPECT_NEAR(steps[static_cast<std::size_t>(Parameter::Weff)],
              0.01 * geom_.width, 1e-18);
}

TEST_F(SensitivityTest, NamesAreStable) {
  EXPECT_STREQ(toString(Target::Idsat), "Idsat");
  EXPECT_STREQ(toString(Target::Log10Ioff), "log10(Ioff)");
  EXPECT_STREQ(toString(Target::Cgg), "Cgg@Vdd");
}

TEST(SensitivityScaling, IdsatVt0SensitivityGrowsWithWidth) {
  const models::VsParams card = models::defaultVsNmos();
  const linalg::Matrix narrow = targetSensitivities(card, geometryNm(300, 40), 0.9);
  const linalg::Matrix wide = targetSensitivities(card, geometryNm(1200, 40), 0.9);
  EXPECT_NEAR(wide(0, 0) / narrow(0, 0), 4.0, 0.2);  // ~linear in W
}

}  // namespace
}  // namespace vsstat::extract
