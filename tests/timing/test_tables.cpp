// Inverter operating-point characterization: physical trends of delay and
// output slew over load and input slew, determinism, and input validation.
#include <gtest/gtest.h>

#include "models/vs_model.hpp"
#include "timing/tables.hpp"
#include "util/error.hpp"

namespace vsstat::timing {
namespace {

using models::VsModel;

DelayPoint measure(double inputSlew, double loadFarads) {
  const VsModel pmos(models::defaultVsPmos());
  const VsModel nmos(models::defaultVsNmos());
  return measureInverterPoint(pmos, models::geometryNm(600, 40), nmos,
                              models::geometryNm(300, 40), 0.9, inputSlew,
                              loadFarads);
}

TEST(InverterPoint, DelayAndSlewGrowWithLoad) {
  const DelayPoint light = measure(15e-12, 0.5e-15);
  const DelayPoint heavy = measure(15e-12, 6e-15);
  EXPECT_GT(heavy.fallDelay, light.fallDelay);
  EXPECT_GT(heavy.riseDelay, light.riseDelay);
  EXPECT_GT(heavy.fallSlew, light.fallSlew);
  EXPECT_GT(heavy.riseSlew, light.riseSlew);
}

TEST(InverterPoint, DelayGrowsWithInputSlew) {
  // Slower input edges delay the switching point.
  EXPECT_GT(measure(35e-12, 6e-15).fallDelay, measure(6e-12, 6e-15).fallDelay);
}

TEST(InverterPoint, RepeatedCallsSeeIdenticalDevices) {
  const DelayPoint a = measure(15e-12, 2e-15);
  const DelayPoint b = measure(15e-12, 2e-15);
  EXPECT_EQ(a.fallDelay, b.fallDelay);
  EXPECT_EQ(a.riseDelay, b.riseDelay);
  EXPECT_GT(a.fallSlew, 0.0);
  EXPECT_GT(a.riseSlew, 0.0);
  EXPECT_DOUBLE_EQ(a.averageDelay(), 0.5 * (a.fallDelay + a.riseDelay));
}

TEST(InverterPoint, ValidatesParameters) {
  EXPECT_THROW((void)measure(-1e-12, 2e-15), InvalidArgumentError);
  EXPECT_THROW((void)measure(15e-12, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::timing
