#include "measure/setup_hold.hpp"

#include <gtest/gtest.h>

#include "models/vs_model.hpp"

namespace vsstat::measure {
namespace {

using circuits::CellSizing;
using circuits::DffBench;
using circuits::NominalProvider;
using models::VsModel;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

CellSizing dffSizing() { return CellSizing{600.0, 300.0, 40.0}; }

TEST(SetupTime, NominalIsPositivePicoseconds) {
  auto p = vsProvider();
  DffBench b = circuits::buildDff(p, 0.9, dffSizing());
  const double tSetup = measureSetupTime(b);
  // Master-slave pass-gate register: setup in the tens of ps at most.
  EXPECT_GT(tSetup, -10e-12);
  EXPECT_LT(tSetup, 45e-12);
}

TEST(SetupTime, BisectionIsDeterministic) {
  auto p1 = vsProvider();
  DffBench b1 = circuits::buildDff(p1, 0.9, dffSizing());
  auto p2 = vsProvider();
  DffBench b2 = circuits::buildDff(p2, 0.9, dffSizing());
  EXPECT_DOUBLE_EQ(measureSetupTime(b1), measureSetupTime(b2));
}

}  // namespace
}  // namespace vsstat::measure
