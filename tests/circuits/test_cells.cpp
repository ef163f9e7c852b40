#include "circuits/cells.hpp"

#include <gtest/gtest.h>

#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::circuits {
namespace {

using models::BsimLite;
using models::VsModel;
using spice::Circuit;
using spice::NodeId;
using spice::SourceWaveform;

constexpr double kVdd = 0.9;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

TEST(InverterCell, InstantiatesTwoDevices) {
  Circuit c;
  auto p = vsProvider();
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const NodeId vdd = c.node("vdd");
  addInverter(c, p, "X1", in, out, vdd, CellSizing{});
  EXPECT_EQ(c.elements().size(), 2u);
  EXPECT_NO_THROW((void)c.mosfet("X1.MP"));
  EXPECT_NO_THROW((void)c.mosfet("X1.MN"));
}

TEST(InverterCell, SizingScalesGeometry) {
  Circuit c;
  auto p = vsProvider();
  const CellSizing base{600.0, 300.0, 40.0};
  addInverter(c, p, "X1", c.node("a"), c.node("b"), c.node("vdd"),
              base.scaled(2.0));
  EXPECT_NEAR(c.mosfet("X1.MP").geometry().widthNm(), 1200.0, 1e-9);
  EXPECT_NEAR(c.mosfet("X1.MN").geometry().widthNm(), 600.0, 1e-9);
  EXPECT_NEAR(c.mosfet("X1.MN").geometry().lengthNm(), 40.0, 1e-9);
}

TEST(Nand2Cell, TruthTable) {
  // Static DC truth table of the NAND2 (VS models).
  for (const auto& [a, b, expected] :
       std::vector<std::tuple<double, double, double>>{
           {0.0, 0.0, kVdd},
           {0.0, kVdd, kVdd},
           {kVdd, 0.0, kVdd},
           {kVdd, kVdd, 0.0}}) {
    Circuit c;
    auto p = vsProvider();
    const NodeId na = c.node("a");
    const NodeId nb = c.node("b");
    const NodeId out = c.node("out");
    const NodeId vdd = c.node("vdd");
    addNand2(c, p, "X1", na, nb, out, vdd, CellSizing{});
    c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(kVdd));
    c.addVoltageSource("VA", na, c.ground(), SourceWaveform::dc(a));
    c.addVoltageSource("VB", nb, c.ground(), SourceWaveform::dc(b));
    const auto op = spice::dcOperatingPoint(c);
    EXPECT_NEAR(op.v(out), expected, 0.02) << "a=" << a << " b=" << b;
  }
}

TEST(Nand2Cell, HasInternalStackNode) {
  Circuit c;
  auto p = vsProvider();
  addNand2(c, p, "X1", c.node("a"), c.node("b"), c.node("o"), c.node("vdd"),
           CellSizing{});
  EXPECT_EQ(c.elements().size(), 4u);
  // The mid node exists (series NMOS stack).
  EXPECT_EQ(c.nodeName(c.node("X1.mid")), "X1.mid");
}

TEST(NmosPass, ConductsWhenGateHigh) {
  Circuit c;
  auto p = vsProvider();
  const NodeId x = c.node("x");
  const NodeId y = c.node("y");
  const NodeId g = c.node("g");
  addNmosPass(c, p, "MP1", x, y, g, 300.0, 40.0);
  c.addVoltageSource("VX", x, c.ground(), SourceWaveform::dc(0.5));
  c.addVoltageSource("VG", g, c.ground(), SourceWaveform::dc(kVdd));
  c.addResistor("RL", y, c.ground(), 1e6);
  const auto op = spice::dcOperatingPoint(c);
  EXPECT_GT(op.v(y), 0.4);  // passes most of the 0.5 V
}

TEST(NmosPass, BlocksWhenGateLow) {
  Circuit c;
  auto p = vsProvider();
  const NodeId x = c.node("x");
  const NodeId y = c.node("y");
  const NodeId g = c.node("g");
  addNmosPass(c, p, "MP1", x, y, g, 300.0, 40.0);
  c.addVoltageSource("VX", x, c.ground(), SourceWaveform::dc(0.5));
  c.addVoltageSource("VG", g, c.ground(), SourceWaveform::dc(0.0));
  c.addResistor("RL", y, c.ground(), 1e6);
  const auto op = spice::dcOperatingPoint(c);
  EXPECT_LT(op.v(y), 0.1);  // only leakage
}


TEST(Provider, NominalProviderChecksPolarity) {
  EXPECT_THROW(NominalProvider(VsModel(models::defaultVsPmos()),
                               VsModel(models::defaultVsNmos())),
               vsstat::InvalidArgumentError);
}

TEST(Provider, WorksAcrossModelFamilies) {
  // A BsimLite-backed provider builds the same topology.
  Circuit c;
  NominalProvider p(BsimLite(models::defaultBsimNmos()),
                    BsimLite(models::defaultBsimPmos()));
  addInverter(c, p, "X1", c.node("a"), c.node("b"), c.node("vdd"),
              CellSizing{});
  EXPECT_EQ(c.mosfet("X1.MP").model().name(), "BSIM-lite");
}

}  // namespace
}  // namespace vsstat::circuits
