// Engine validation against closed-form linear circuit solutions.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"
#include "util/error.hpp"

namespace vsstat::spice {
namespace {

TEST(LinearDc, VoltageDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.addVoltageSource("V1", in, c.ground(), SourceWaveform::dc(10.0));
  c.addResistor("R1", in, mid, 1000.0);
  c.addResistor("R2", mid, c.ground(), 3000.0);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(mid), 7.5, 1e-9);
  EXPECT_NEAR(sourceCurrent(c, "V1", op), -10.0 / 4000.0, 1e-12);
}

TEST(LinearDc, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  c.addCurrentSource("I1", c.ground(), n, SourceWaveform::dc(1e-3));
  c.addResistor("R1", n, c.ground(), 2000.0);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(n), 2.0, 1e-9);
}

TEST(LinearDc, TwoSourcesSuperpose) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.addVoltageSource("VA", a, c.ground(), SourceWaveform::dc(5.0));
  c.addVoltageSource("VB", b, c.ground(), SourceWaveform::dc(1.0));
  const NodeId m = c.node("m");
  c.addResistor("R1", a, m, 1000.0);
  c.addResistor("R2", b, m, 1000.0);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(m), 3.0, 1e-9);
}

TEST(LinearDc, FloatingNodeRecoveredByGmin) {
  // A node connected only through a capacitor has no DC path; gmin
  // stepping must still produce a solution (node pulled to 0).
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId f = c.node("float");
  c.addVoltageSource("V1", a, c.ground(), SourceWaveform::dc(1.0));
  c.addCapacitor("C1", a, f, 1e-15);
  c.addResistor("R1", a, c.ground(), 1000.0);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(a), 1.0, 1e-9);
}

TEST(LinearTransient, RcChargingMatchesAnalytic) {
  // V -> R -> C: v_c(t) = V (1 - exp(-t/RC)), RC = 1 ns.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("V1", in, c.ground(), SourceWaveform::dc(1.0));
  c.addResistor("R1", in, out, 1000.0);
  c.addCapacitor("C1", out, c.ground(), 1e-12);

  // Start from a discharged capacitor: step the source with a fast edge.
  c.voltageSource("V1").setWaveform(
      SourceWaveform::pulse(0.0, 1.0, 0.0, 1e-14, 1e-14, 1.0));

  TransientOptions opt;
  opt.tStop = 5e-9;
  opt.dt = 5e-12;
  const Waveform w = transient(c, opt);

  const double rc = 1e-9;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-t / rc);
    EXPECT_NEAR(w.valueAt(out, t), expected, 0.01) << "t = " << t;
  }
  EXPECT_NEAR(w.finalValue(out), 1.0 - std::exp(-5.0), 5e-3);
}

TEST(LinearTransient, RcDischargeTimeConstant) {
  // 63.2% crossing time equals RC.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("V1", in, c.ground(),
                     SourceWaveform::pulse(0.0, 1.0, 0.0, 1e-14, 1e-14, 1.0));
  c.addResistor("R1", in, out, 2000.0);
  c.addCapacitor("C1", out, c.ground(), 0.5e-12);  // RC = 1 ns
  TransientOptions opt;
  opt.tStop = 4e-9;
  opt.dt = 4e-12;
  const Waveform w = transient(c, opt);
  const auto t63 = w.crossing(out, 1.0 - std::exp(-1.0), true);
  ASSERT_TRUE(t63.has_value());
  EXPECT_NEAR(*t63, 1e-9, 0.03e-9);
}

TEST(LinearTransient, CapacitorDividerConservesCharge) {
  // Two series caps divide a step by the capacitance ratio.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.addVoltageSource("V1", in, c.ground(),
                     SourceWaveform::pulse(0.0, 1.0, 1e-12, 1e-13, 1e-13, 1.0));
  c.addCapacitor("C1", in, mid, 3e-15);
  c.addCapacitor("C2", mid, c.ground(), 1e-15);
  // Large bleed resistor defines DC without disturbing the fast edge.
  c.addResistor("Rb", mid, c.ground(), 1e12);
  TransientOptions opt;
  opt.tStop = 20e-12;
  opt.dt = 0.05e-12;
  const Waveform w = transient(c, opt);
  EXPECT_NEAR(w.finalValue(mid), 0.75, 0.01);
}

TEST(LinearSweep, DcSweepTracksSourceLevels) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.addVoltageSource("V1", in, c.ground(), SourceWaveform::dc(0.0));
  c.addResistor("R1", in, mid, 1000.0);
  c.addResistor("R2", mid, c.ground(), 1000.0);
  std::vector<double> vMid;
  SimSession(c).dcSweepNode("V1", {0.0, 1.0, 2.0, 3.0}, mid, vMid);
  ASSERT_EQ(vMid.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(vMid[i], 0.5 * static_cast<double>(i), 1e-9);
  }
  // Original waveform restored after sweep.
  EXPECT_DOUBLE_EQ(c.voltageSource("V1").waveform().dcValue(), 0.0);
}

TEST(Elements, RejectsBadValues) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.addResistor("R", a, c.ground(), 0.0), InvalidArgumentError);
  EXPECT_THROW(c.addCapacitor("C", a, c.ground(), -1e-15),
               InvalidArgumentError);
}

TEST(Circuit, RejectsDuplicateElementNames) {
  Circuit c;
  const NodeId a = c.node("a");
  c.addResistor("R1", a, c.ground(), 100.0);
  EXPECT_THROW(c.addResistor("R1", a, c.ground(), 100.0),
               InvalidArgumentError);
}

TEST(Circuit, NodeLookupIsStable) {
  Circuit c;
  const NodeId a = c.node("x");
  EXPECT_EQ(c.node("x"), a);
  EXPECT_EQ(c.node("gnd"), c.ground());
  EXPECT_EQ(c.node("0"), c.ground());
  EXPECT_EQ(c.nodeName(a), "x");
}

}  // namespace
}  // namespace vsstat::spice
