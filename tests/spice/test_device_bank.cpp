// The device bank is the only way a MOSFET enters the Newton system
// (spice/device_bank.hpp).  Its references: the model's own scalar
// evaluateLoad, which every banked stamp must reproduce exactly (the
// batch evaluation itself is pinned lane for lane by test_model_contract),
// and sessions on freshly built circuits, which in-place and cross-family
// rebinds (a lane refresh resp. a bank rebuild) must reproduce bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/assembler.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"

namespace vsstat::spice {
namespace {

models::VsParams nmosCard() { return models::defaultVsNmos(); }
models::VsParams pmosCard() { return models::defaultVsPmos(); }

/// Inverter driving a capacitive load, with a pulse input: exercises DC
/// (homotopies off the zero guess) and transient (charge stamps).  The
/// pull-down's card and geometry are parameters, so a rebind test can
/// build the circuit a rebind should be indistinguishable from.
Circuit makeInverter(std::unique_ptr<models::MosfetModel> pullDown =
                         std::make_unique<models::VsModel>(nmosCard()),
                     const models::DeviceGeometry& pullDownGeometry =
                         models::geometryNm(300, 40)) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", in, c.ground(),
                     SourceWaveform::pulse(0.0, 0.9, 20e-12, 10e-12, 10e-12,
                                           80e-12, 200e-12));
  c.addMosfet("MP", out, in, vdd,
              std::make_unique<models::VsModel>(pmosCard()),
              models::geometryNm(600, 40));
  c.addMosfet("MN", out, in, c.ground(), std::move(pullDown),
              pullDownGeometry);
  c.addCapacitor("CL", out, c.ground(), 2e-15);
  return c;
}

void expectSameOp(const OperatingPoint& a, const OperatingPoint& b) {
  ASSERT_EQ(a.nodeVoltages.size(), b.nodeVoltages.size());
  for (std::size_t i = 0; i < a.nodeVoltages.size(); ++i)
    EXPECT_EQ(a.nodeVoltages[i], b.nodeVoltages[i]) << "node " << i;
  ASSERT_EQ(a.branchCurrents.size(), b.branchCurrents.size());
  for (std::size_t i = 0; i < a.branchCurrents.size(); ++i)
    EXPECT_EQ(a.branchCurrents[i], b.branchCurrents[i]) << "branch " << i;
}

void expectSameWave(const Waveform& a, const Waveform& b) {
  ASSERT_EQ(a.sampleCount(), b.sampleCount());
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < a.sampleCount(); ++i) {
    EXPECT_EQ(a.time(i), b.time(i)) << "sample " << i;
    for (std::size_t n = 0; n < a.nodeCount(); ++n)
      EXPECT_EQ(a.value(static_cast<NodeId>(n), i),
                b.value(static_cast<NodeId>(n), i))
          << "sample " << i << " node " << n;
  }
}

/// One MOSFET whose drain, gate and source sit on their own
/// voltage-source driven nodes, biased at (vd, vg, vs).
struct DrivenDevice {
  const MosfetElement* m;
  NodeId d, g, s;
  double vd, vg, vs;
};

DrivenDevice addDrivenDevice(Circuit& c, const std::string& name,
                             std::unique_ptr<models::MosfetModel> model,
                             double vd, double vg, double vs) {
  const NodeId d = c.node(name + "_d");
  const NodeId g = c.node(name + "_g");
  const NodeId s = c.node(name + "_s");
  c.addVoltageSource("VD_" + name, d, c.ground(), SourceWaveform::dc(vd));
  c.addVoltageSource("VG_" + name, g, c.ground(), SourceWaveform::dc(vg));
  c.addVoltageSource("VS_" + name, s, c.ground(), SourceWaveform::dc(vs));
  const MosfetElement& m = c.addMosfet("M_" + name, d, g, s, std::move(model),
                                       models::geometryNm(300, 40));
  return DrivenDevice{&m, d, g, s, vd, vg, vs};
}

/// The device's node residuals and 3x3 Jacobian block equal the values
/// built from the model's own evaluateLoad at the integrator gain c0.
void expectStampMatchesEvaluateLoad(const detail::Assembler& assembler,
                                    const DrivenDevice& dev, double c0) {
  const models::MosfetModel& model = dev.m->model();
  const double sign =
      model.deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0;
  const models::MosfetLoadEvaluation ev =
      model.evaluateLoad(dev.m->geometry(), sign * (dev.vg - dev.vs),
                         sign * (dev.vd - dev.vs), kMosfetFdStep);

  // Canonical current and charges map back with the polarity sign; the
  // derivatives need none.  The charge terms vanish in DC.
  const double id = sign * ev.at.id;
  const double didvgs = ev.didVgs;
  const double didvds = ev.didVds;
  const auto r = [&](NodeId node) {
    return assembler.residual()[static_cast<std::size_t>(node - 1)];
  };
  EXPECT_EQ(r(dev.d), id + c0 * (sign * ev.at.qd));
  EXPECT_EQ(r(dev.g), c0 * (sign * ev.at.qg));
  EXPECT_EQ(r(dev.s), -id + c0 * (sign * ev.at.qs));

  const auto j = [&](NodeId row, NodeId col) {
    return assembler.jacobian()(static_cast<std::size_t>(row - 1),
                                static_cast<std::size_t>(col - 1));
  };
  const auto chargeRow = [&](double dqdvgs, double dqdvds) {
    return std::vector<double>{c0 * dqdvgs, c0 * dqdvds,
                               -c0 * (dqdvgs + dqdvds)};
  };
  const std::vector<double> qd = chargeRow(ev.dqdVgs, ev.dqdVds);
  const std::vector<double> qg = chargeRow(ev.dqgVgs, ev.dqgVds);
  const std::vector<double> qs = chargeRow(ev.dqsVgs, ev.dqsVds);
  EXPECT_EQ(j(dev.d, dev.g), didvgs + qd[0]);
  EXPECT_EQ(j(dev.d, dev.d), didvds + qd[1]);
  EXPECT_EQ(j(dev.d, dev.s), -(didvgs + didvds) + qd[2]);
  EXPECT_EQ(j(dev.g, dev.g), qg[0]);
  EXPECT_EQ(j(dev.g, dev.d), qg[1]);
  EXPECT_EQ(j(dev.g, dev.s), qg[2]);
  EXPECT_EQ(j(dev.s, dev.g), -didvgs + qs[0]);
  EXPECT_EQ(j(dev.s, dev.d), -didvds + qs[1]);
  EXPECT_EQ(j(dev.s, dev.s), (didvgs + didvds) + qs[2]);
}

TEST(DeviceBank, StampMatchesModelEvaluateLoad) {
  // VS NMOS, BsimLite, VS PMOS and AlphaPower devices in one circuit:
  // three model groups, the VS group's two lanes on non-adjacent
  // elements.  With zero branch currents each device's node rows carry
  // its stamp alone.  Assembled in DC and under backward Euler with
  // h = 1/1024, so that c0 = 1024 is exact.
  Circuit c;
  const std::vector<DrivenDevice> devices = {
      addDrivenDevice(c, "vsn", std::make_unique<models::VsModel>(nmosCard()),
                      0.6, 0.7, 0.1),
      addDrivenDevice(
          c, "bsim",
          std::make_unique<models::BsimLite>(models::defaultBsimNmos()), 0.6,
          0.7, 0.1),
      addDrivenDevice(c, "vsp", std::make_unique<models::VsModel>(pmosCard()),
                      0.3, 0.2, 0.9),
      addDrivenDevice(c, "alpha",
                      std::make_unique<models::AlphaPowerModel>(
                          models::defaultAlphaNmos()),
                      0.6, 0.7, 0.1)};

  detail::Assembler assembler(c);
  ASSERT_EQ(assembler.deviceBankLaneCount(), 4u);
  ASSERT_EQ(assembler.deviceBankGroupCount(), 3u);
  linalg::Vector x(c.unknownCount(), 0.0);
  for (const DrivenDevice& dev : devices) {
    x[static_cast<std::size_t>(dev.d - 1)] = dev.vd;
    x[static_cast<std::size_t>(dev.g - 1)] = dev.vg;
    x[static_cast<std::size_t>(dev.s - 1)] = dev.vs;
  }

  for (const double c0 : {0.0, 1024.0}) {
    SCOPED_TRACE(c0 == 0.0 ? "dc" : "backward Euler, c0 = 1024");
    if (c0 == 0.0) {
      assembler.setDcMode();
    } else {
      assembler.setBackwardEuler(1.0 / 1024.0);
    }
    ASSERT_EQ(assembler.c0(), c0);
    assembler.assemble(x);
    for (const DrivenDevice& dev : devices) {
      SCOPED_TRACE(dev.m->name());
      expectStampMatchesEvaluateLoad(assembler, dev, c0);
    }
  }
}

TEST(DeviceBank, InPlaceRebindRefreshesLanes) {
  Circuit rebound = makeInverter();
  SimSession reboundSession(rebound);
  ASSERT_EQ(reboundSession.deviceBankLaneCount(), 2u);
  (void)reboundSession.dcOperatingPoint();  // lanes derived from the old card

  // Same-type rebind overwrites the card in place; the bank must re-derive
  // its cached per-lane state before the next solve, or the solve would
  // not match a circuit built with the new card.
  models::VsParams shifted = nmosCard();
  shifted.vt0 += 0.07;
  const models::VsModel card(shifted);
  rebound.mosfet("MN").rebind(card, models::geometryNm(320, 42));

  Circuit fresh = makeInverter(std::make_unique<models::VsModel>(shifted),
                               models::geometryNm(320, 42));
  SimSession freshSession(fresh);
  expectSameOp(reboundSession.dcOperatingPoint(),
               freshSession.dcOperatingPoint());
}

TEST(DeviceBank, CrossFamilyRebindRebuildsBank) {
  Circuit rebound = makeInverter();
  SimSession reboundSession(rebound);
  (void)reboundSession.dcOperatingPoint();

  // Cross-family rebind clones a BsimLite card into the VS lane: the VS
  // bank reports the incompatible type and the set regroups.
  const models::BsimLite golden(models::defaultBsimNmos());
  rebound.mosfet("MN").rebind(golden, models::geometryNm(300, 40));

  Circuit fresh = makeInverter(
      std::make_unique<models::BsimLite>(models::defaultBsimNmos()),
      models::geometryNm(300, 40));
  SimSession freshSession(fresh);
  expectSameOp(reboundSession.dcOperatingPoint(),
               freshSession.dcOperatingPoint());
}

TEST(DeviceBank, FreeFunctionsMatchAReusedSession) {
  // The free analyses are one-shot sessions; a persistent session that has
  // already run other analyses must still reproduce them bit for bit.
  Circuit freePath = makeInverter();
  Circuit reused = makeInverter();
  SimSession session(reused);

  TransientOptions opt;
  opt.tStop = 100e-12;
  opt.dt = 1e-12;
  const Waveform first = session.transient(opt);
  expectSameOp(dcOperatingPoint(freePath), session.dcOperatingPoint());
  expectSameWave(transient(freePath, opt), session.transient(opt));
  expectSameWave(first, session.transient(opt));
}

}  // namespace
}  // namespace vsstat::spice
