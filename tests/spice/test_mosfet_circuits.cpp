// Nonlinear engine validation on MOSFET circuits (both compact models).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"

namespace vsstat::spice {
namespace {

using models::BsimLite;
using models::defaultBsimNmos;
using models::defaultBsimPmos;
using models::defaultVsNmos;
using models::defaultVsPmos;
using models::geometryNm;
using models::VsModel;

constexpr double kVdd = 0.9;

/// Builds a VS inverter; returns (in, out).
std::pair<NodeId, NodeId> buildInverter(Circuit& c, bool useVs) {
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(kVdd));
  c.addVoltageSource("VIN", in, c.ground(), SourceWaveform::dc(0.0));
  if (useVs) {
    c.addMosfet("MP", out, in, vdd, std::make_unique<VsModel>(defaultVsPmos()),
                geometryNm(600, 40));
    c.addMosfet("MN", out, in, c.ground(),
                std::make_unique<VsModel>(defaultVsNmos()), geometryNm(300, 40));
  } else {
    c.addMosfet("MP", out, in, vdd,
                std::make_unique<BsimLite>(defaultBsimPmos()),
                geometryNm(600, 40));
    c.addMosfet("MN", out, in, c.ground(),
                std::make_unique<BsimLite>(defaultBsimNmos()),
                geometryNm(300, 40));
  }
  return {in, out};
}

class InverterBothModels : public ::testing::TestWithParam<bool> {};

TEST_P(InverterBothModels, RailToRailLogicLevels) {
  Circuit c;
  const auto [in, out] = buildInverter(c, GetParam());
  c.voltageSource("VIN").setDcLevel(0.0);
  EXPECT_NEAR(dcOperatingPoint(c).v(out), kVdd, 5e-3);
  c.voltageSource("VIN").setDcLevel(kVdd);
  EXPECT_NEAR(dcOperatingPoint(c).v(out), 0.0, 5e-3);
}

TEST_P(InverterBothModels, VtcIsMonotonicallyDecreasing) {
  Circuit c;
  const auto [in, out] = buildInverter(c, GetParam());
  std::vector<double> levels;
  for (int i = 0; i <= 30; ++i) levels.push_back(kVdd * i / 30.0);
  std::vector<double> vOut;
  SimSession(c).dcSweepNode("VIN", levels, out, vOut);
  ASSERT_EQ(vOut.size(), levels.size());
  for (std::size_t i = 1; i < vOut.size(); ++i) {
    EXPECT_LE(vOut[i], vOut[i - 1] + 1e-9) << "step " << i;
  }
  // Switching threshold is interior.
  EXPECT_GT(vOut[10], 0.5 * kVdd);
  EXPECT_LT(vOut[20], 0.5 * kVdd);
}

TEST_P(InverterBothModels, TransientInversionWithCapLoad) {
  Circuit c;
  const auto [in, out] = buildInverter(c, GetParam());
  c.addCapacitor("CL", out, c.ground(), 2e-15);
  c.voltageSource("VIN").setWaveform(
      SourceWaveform::pulse(0.0, kVdd, 10e-12, 10e-12, 10e-12, 60e-12));
  TransientOptions opt;
  opt.tStop = 140e-12;
  opt.dt = 0.2e-12;
  const Waveform w = transient(c, opt);
  // Output starts high, falls after the input edge, rises back.
  EXPECT_NEAR(w.value(out, 0), kVdd, 5e-3);
  const auto fall = w.crossing(out, 0.5 * kVdd, false, 10e-12);
  ASSERT_TRUE(fall.has_value());
  const auto rise = w.crossing(out, 0.5 * kVdd, true, *fall);
  ASSERT_TRUE(rise.has_value());
  EXPECT_NEAR(w.finalValue(out), kVdd, 0.02);
}

INSTANTIATE_TEST_SUITE_P(VsAndBsim, InverterBothModels, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "VS" : "BsimLite";
                         });

TEST(MosfetDc, DiodeConnectedSettlesNearThreshold) {
  // Current forced through a diode-connected NMOS: gate voltage rises a
  // few hundred mV above VT0 depending on the current level.
  Circuit c;
  const NodeId d = c.node("d");
  c.addCurrentSource("IB", c.ground(), d, SourceWaveform::dc(10e-6));
  c.addMosfet("MN", d, d, c.ground(), std::make_unique<VsModel>(defaultVsNmos()),
              geometryNm(600, 40));
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_GT(op.v(d), 0.2);
  EXPECT_LT(op.v(d), 0.8);
}

TEST(MosfetDc, PassTransistorDegradesHighLevel) {
  // NMOS pass with gate at Vdd passes Vdd minus an effective threshold.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(kVdd));
  c.addMosfet("MPASS", vdd, vdd, out,
              std::make_unique<VsModel>(defaultVsNmos()), geometryNm(300, 40));
  c.addResistor("RL", out, c.ground(), 2e5);  // ~microamp load
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_LT(op.v(out), kVdd - 0.1);  // degraded high
  EXPECT_GT(op.v(out), 0.3);
}

TEST(MosfetTransient, GateLeakageFreeChargeConservation) {
  // A MOSFET gate in series with a capacitor: DC steady state passes no
  // current, so the capacitor holds its charge.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(kVdd));
  c.addCapacitor("CG", vdd, g, 1e-15);
  c.addMosfet("MN", vdd, g, c.ground(),
              std::make_unique<VsModel>(defaultVsNmos()), geometryNm(300, 40));
  TransientOptions opt;
  opt.tStop = 50e-12;
  opt.dt = 0.5e-12;
  const Waveform w = transient(c, opt);
  // Node g settles and stays put (no DC gate current path).
  EXPECT_NEAR(w.finalValue(g), w.valueAt(g, 25e-12), 1e-3);
}

TEST(MosfetDc, RingOfInvertersBistable) {
  // Cross-coupled inverter pair (an SRAM-like latch) has a stable state
  // with complementary outputs when initialized asymmetrically.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId q = c.node("q");
  const NodeId qb = c.node("qb");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(kVdd));
  const auto addInv = [&](const std::string& p, NodeId in, NodeId out) {
    c.addMosfet(p + "P", out, in, vdd,
                std::make_unique<VsModel>(defaultVsPmos()), geometryNm(300, 40));
    c.addMosfet(p + "N", out, in, c.ground(),
                std::make_unique<VsModel>(defaultVsNmos()), geometryNm(150, 40));
  };
  addInv("I1", q, qb);
  addInv("I2", qb, q);
  // Newton accepts any DC solution including the metastable one; start
  // from an asymmetric initial guess so it lands on a stable state.
  OperatingPoint guess;
  guess.nodeVoltages.assign(c.nodeCount(), 0.0);
  guess.nodeVoltages[static_cast<std::size_t>(vdd)] = kVdd;
  guess.nodeVoltages[static_cast<std::size_t>(q)] = kVdd;
  guess.branchCurrents.assign(static_cast<std::size_t>(c.branchTotal()), 0.0);
  const OperatingPoint op = dcOperatingPoint(c, guess);
  EXPECT_GT(op.v(q), 0.8 * kVdd);
  EXPECT_LT(op.v(qb), 0.2 * kVdd);
}

}  // namespace
}  // namespace vsstat::spice
