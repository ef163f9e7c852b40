#include "circuits/benchmarks.hpp"

#include <gtest/gtest.h>

#include "models/vs_model.hpp"
#include "measure/delay.hpp"
#include "util/error.hpp"
#include "spice/ac.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"

namespace vsstat::circuits {
namespace {

using models::VsModel;
using spice::SourceWaveform;

constexpr double kVdd = 0.9;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

TEST(InvFo3, HasDriverPlusLoads) {
  auto p = vsProvider();
  GateFo3Bench b = buildInvFo3(p, CellSizing{}, StimulusSpec{});
  // driver (2 FETs) + 3 loads (2 each) + 2 sources = 10 elements.
  EXPECT_EQ(b.circuit.elements().size(), 10u);
  EXPECT_GT(b.tStop, 0.0);
}

TEST(InvFo3, StaticLevelsInvert) {
  auto p = vsProvider();
  GateFo3Bench b = buildInvFo3(p, CellSizing{}, StimulusSpec{});
  b.circuit.voltageSource(b.inSource).setDcLevel(0.0);
  EXPECT_NEAR(spice::dcOperatingPoint(b.circuit).v(b.out), kVdd, 0.01);
  b.circuit.voltageSource(b.inSource).setDcLevel(kVdd);
  EXPECT_NEAR(spice::dcOperatingPoint(b.circuit).v(b.out), 0.0, 0.01);
}

TEST(Nand2Fo3, InvertsSwitchingInput) {
  auto p = vsProvider();
  GateFo3Bench b = buildNand2Fo3(p, CellSizing{}, StimulusSpec{});
  // B tied high: out = !A.
  b.circuit.voltageSource(b.inSource).setDcLevel(0.0);
  EXPECT_NEAR(spice::dcOperatingPoint(b.circuit).v(b.out), kVdd, 0.01);
  b.circuit.voltageSource(b.inSource).setDcLevel(kVdd);
  EXPECT_NEAR(spice::dcOperatingPoint(b.circuit).v(b.out), 0.0, 0.01);
}

TEST(Nand2Fo3, WorksAtScaledSupplies) {
  // The Fig. 7 sweep runs the same fixture at 0.9/0.7/0.55 V.
  for (double vdd : {0.9, 0.7, 0.55}) {
    auto p = vsProvider();
    StimulusSpec s;
    s.vdd = vdd;
    GateFo3Bench b = buildNand2Fo3(p, CellSizing{}, s);
    b.circuit.voltageSource(b.inSource).setDcLevel(0.0);
    EXPECT_NEAR(spice::dcOperatingPoint(b.circuit).v(b.out), vdd, 0.02)
        << "vdd = " << vdd;
  }
}

TEST(Dff, CapturesDataOnRisingEdge) {
  auto p = vsProvider();
  DffBench b = buildDff(p, kVdd, CellSizing{600.0, 300.0, 40.0});

  // D = 1 well before the clock edge at 60 ps.
  b.circuit.voltageSource(b.dSource).setWaveform(SourceWaveform::pwl(
      {{0.0, 0.0}, {10e-12, 0.0}, {18e-12, kVdd}, {200e-12, kVdd}}));
  b.circuit.voltageSource(b.clkSource).setWaveform(SourceWaveform::pwl(
      {{0.0, 0.0}, {60e-12, 0.0}, {68e-12, kVdd}, {200e-12, kVdd}}));

  spice::TransientOptions opt;
  opt.tStop = 200e-12;
  opt.dt = 0.3e-12;
  const spice::Waveform w = spice::transient(b.circuit, opt);
  EXPECT_GT(w.finalValue(b.q), 0.9 * kVdd);  // captured the 1
}

TEST(Dff, HoldsValueWhenDataChangesLate) {
  auto p = vsProvider();
  DffBench b = buildDff(p, kVdd, CellSizing{600.0, 300.0, 40.0});

  // D rises only 25 ps AFTER the rising clock edge: Q must stay 0 well
  // after the edge (the old data was 0).
  b.circuit.voltageSource(b.dSource).setWaveform(SourceWaveform::pwl(
      {{0.0, 0.0}, {85e-12, 0.0}, {93e-12, kVdd}, {200e-12, kVdd}}));
  b.circuit.voltageSource(b.clkSource).setWaveform(SourceWaveform::pwl(
      {{0.0, 0.0}, {60e-12, 0.0}, {68e-12, kVdd}, {200e-12, kVdd}}));

  spice::TransientOptions opt;
  opt.tStop = 160e-12;
  opt.dt = 0.3e-12;
  const spice::Waveform w = spice::transient(b.circuit, opt);
  EXPECT_LT(w.valueAt(b.q, 150e-12), 0.25 * kVdd);
}

TEST(Dff, SixteenTransistors) {
  auto p = vsProvider();
  DffBench b = buildDff(p, kVdd, CellSizing{600.0, 300.0, 40.0});
  int fets = 0;
  for (const auto& e : b.circuit.elements()) {
    if (dynamic_cast<const spice::MosfetElement*>(e.get()) != nullptr) ++fets;
  }
  EXPECT_EQ(fets, 16);
}

/// Output of the butterfly's first half cell with its input held at `vin`.
double halfCellOutput(SramButterflyBench& b, double vin) {
  std::vector<double> out;
  spice::SimSession(b.circuit).dcSweepNode(b.sweep1, {vin}, b.out1, out);
  return out.front();
}

TEST(SramButterfly, HalfCellsAreInverting) {
  auto p = vsProvider();
  SramButterflyBench b =
      buildSramButterfly(p, kVdd, SramMode::Hold, SramSizing{});
  EXPECT_GT(halfCellOutput(b, 0.0), 0.85 * kVdd);
  EXPECT_LT(halfCellOutput(b, kVdd), 0.15 * kVdd);
}

TEST(SramButterfly, ReadModeDegradesLowLevel) {
  // With WL on and BL at Vdd, the access transistor pulls the '0' node up:
  // the READ butterfly's low level is visibly above the HOLD one.
  auto p1 = vsProvider();
  SramButterflyBench hold =
      buildSramButterfly(p1, kVdd, SramMode::Hold, SramSizing{});
  auto p2 = vsProvider();
  SramButterflyBench read =
      buildSramButterfly(p2, kVdd, SramMode::Read, SramSizing{});
  const double holdLow = halfCellOutput(hold, kVdd);
  const double readLow = halfCellOutput(read, kVdd);
  EXPECT_GT(readLow, holdLow + 0.02);
}

TEST(SramButterfly, SixDevicesSampledInCellOrder) {
  auto p = vsProvider();
  SramButterflyBench b =
      buildSramButterfly(p, kVdd, SramMode::Read, SramSizing{});
  int fets = 0;
  for (const auto& e : b.circuit.elements()) {
    if (dynamic_cast<const spice::MosfetElement*>(e.get()) != nullptr) ++fets;
  }
  EXPECT_EQ(fets, 6);
}

TEST(SramCell, HoldsBothStatesWhenSeeded) {
  auto p1 = vsProvider();
  SramCellBench cell = buildSramCell(p1, kVdd, /*wordlineOn=*/false,
                                     SramSizing{});
  const spice::OperatingPoint opHigh =
      spice::dcOperatingPoint(cell.circuit, cell.stateGuess(true));
  EXPECT_GT(opHigh.v(cell.q), 0.85 * kVdd);
  EXPECT_LT(opHigh.v(cell.qb), 0.15 * kVdd);

  const spice::OperatingPoint opLow =
      spice::dcOperatingPoint(cell.circuit, cell.stateGuess(false));
  EXPECT_LT(opLow.v(cell.q), 0.15 * kVdd);
  EXPECT_GT(opLow.v(cell.qb), 0.85 * kVdd);
}

TEST(SramCell, ReadAccessLiftsTheLowNode) {
  // With the wordline on and both bitlines at Vdd, the access transistor
  // fights the pull-down on the '0' side: the low node rises relative to
  // hold (the read-disturb mechanism behind the READ SNM loss).
  auto p1 = vsProvider();
  SramCellBench hold =
      buildSramCell(p1, kVdd, /*wordlineOn=*/false, SramSizing{});
  auto p2 = vsProvider();
  SramCellBench read =
      buildSramCell(p2, kVdd, /*wordlineOn=*/true, SramSizing{});

  const double holdLow =
      spice::dcOperatingPoint(hold.circuit, hold.stateGuess()).v(hold.qb);
  const double readLow =
      spice::dcOperatingPoint(read.circuit, read.stateGuess()).v(read.qb);
  EXPECT_GT(readLow, holdLow + 0.02);
}

TEST(SramCell, SupplyNoiseTransferIsFiniteAndStateDependent) {
  // Small-signal supply gain at the stored-'1' node: near unity at low
  // frequency (the '1' is held through the PMOS), well-behaved over a wide
  // sweep.  This is the Table IV "SRAM AC" campaign's per-sample kernel.
  auto p = vsProvider();
  SramCellBench cell = buildSramCell(p, kVdd, /*wordlineOn=*/false,
                                     SramSizing{});
  const spice::OperatingPoint op =
      spice::dcOperatingPoint(cell.circuit, cell.stateGuess());
  const spice::SmallSignalSystem system(cell.circuit, op);
  const auto excitation =
      system.voltageExcitation(cell.circuit, cell.vddSource);

  const auto gainAt = [&](double f, spice::NodeId node) {
    const auto x = system.solve(f, excitation);
    return std::abs(x[static_cast<std::size_t>(node - 1)]);
  };
  EXPECT_NEAR(gainAt(1e6, cell.q), 1.0, 0.05);   // '1' node follows Vdd
  EXPECT_LT(gainAt(1e6, cell.qb), 0.2);          // '0' node is held down
  for (double f : {1e7, 1e9, 1e11}) {
    const double g = gainAt(f, cell.q);
    EXPECT_GT(g, 0.0);
    EXPECT_LT(g, 2.0) << "supply gain peaking at f=" << f;
  }
}

TEST(SramCell, SixDevicesMatchButterflyOrder) {
  auto p = vsProvider();
  SramCellBench cell = buildSramCell(p, kVdd, false, SramSizing{});
  std::vector<std::string> fets;
  for (const auto& e : cell.circuit.elements()) {
    if (dynamic_cast<const spice::MosfetElement*>(e.get()) != nullptr)
      fets.push_back(e->name());
  }
  ASSERT_EQ(fets.size(), 6u);
  EXPECT_EQ(fets[0], "MPU1");
  EXPECT_EQ(fets[1], "MPD1");
  EXPECT_EQ(fets[2], "MPG1");
  EXPECT_EQ(fets[3], "MPU2");
  EXPECT_EQ(fets[4], "MPD2");
  EXPECT_EQ(fets[5], "MPG2");
}


TEST(RingOscillator, RejectsEvenOrTooFewStages) {
  auto p = vsProvider();
  EXPECT_THROW((void)buildRingOscillator(p, 4, CellSizing{}, kVdd),
               vsstat::InvalidArgumentError);
  auto p2 = vsProvider();
  EXPECT_THROW((void)buildRingOscillator(p2, 1, CellSizing{}, kVdd),
               vsstat::InvalidArgumentError);
}

TEST(RingOscillator, ThreeStageRingOscillatesRailToRail) {
  auto p = vsProvider();
  RingOscillatorBench ro = buildRingOscillator(p, 3, CellSizing{}, kVdd);
  const measure::OscillationResult r = measure::measureOscillation(ro);
  EXPECT_GT(r.frequency, 1e9);          // it oscillates
  EXPECT_LT(r.frequency, 1e12);         // at a sane rate
  EXPECT_GT(r.swing, 0.8 * kVdd);       // near rail-to-rail
  EXPECT_EQ(r.cyclesMeasured, 4);
  EXPECT_NEAR(r.period * r.frequency, 1.0, 1e-12);
}

TEST(RingOscillator, MoreStagesMeansLowerFrequency) {
  // f = 1/(2 N tp): five stages must run at roughly 3/5 of the
  // three-stage frequency (equal stage delay).
  auto p3 = vsProvider();
  RingOscillatorBench ro3 = buildRingOscillator(p3, 3, CellSizing{}, kVdd);
  auto p5 = vsProvider();
  RingOscillatorBench ro5 = buildRingOscillator(p5, 5, CellSizing{}, kVdd);
  const double f3 = measure::measureOscillation(ro3).frequency;
  const double f5 = measure::measureOscillation(ro5).frequency;
  EXPECT_LT(f5, f3);
  EXPECT_NEAR(f5 / f3, 3.0 / 5.0, 0.12);
}

TEST(HTreeClock, LeafCountAndNearLosslessDelivery) {
  auto p = vsProvider();
  HTreeClockBench b = buildHTreeClock(p, 4, kVdd);
  EXPECT_EQ(b.leaves.size(), 16u);  // 2^levels leaves, breadth-first
  b.circuit.voltageSource(b.rootSource).setDcLevel(kVdd);
  const spice::OperatingPoint op = spice::dcOperatingPoint(b.circuit);
  // Leakage loads only: every leaf sits within a few percent of the root,
  // and deeper-but-symmetric leaves see identical topology per branch.
  for (spice::NodeId leaf : b.leaves) {
    EXPECT_GT(op.v(leaf), 0.9 * kVdd);
    EXPECT_LE(op.v(leaf), kVdd + 1e-9);
  }
}

TEST(HTreeClock, RejectsDegenerateLevels) {
  auto p = vsProvider();
  EXPECT_THROW((void)buildHTreeClock(p, 0, kVdd), InvalidArgumentError);
}

TEST(SramColumn, HoldsStateWithSharedBitlines) {
  auto p = vsProvider();
  SramColumnBench b = buildSramColumn(p, 4, kVdd, SramSizing{});
  ASSERT_EQ(b.q.size(), 4u);
  const spice::OperatingPoint op =
      spice::dcOperatingPoint(b.circuit, b.stateGuess());
  for (std::size_t i = 0; i < b.q.size(); ++i) {
    const bool selected = static_cast<int>(i) == b.selected;
    EXPECT_GT(op.v(b.q[i]), 0.8 * kVdd) << "cell " << i;
    // Unselected cells hold a hard 0; the selected cell's low node is
    // read-disturbed up through its ON access device.
    if (selected) {
      EXPECT_GT(op.v(b.qb[i]), 0.01 * kVdd) << "cell " << i;
    } else {
      EXPECT_LT(op.v(b.qb[i]), 0.1 * kVdd) << "cell " << i;
    }
  }
}

TEST(SramColumn, DeviceOrderMatchesCellConvention) {
  // 6 FETs per cell in PU1,PD1,PG1,PU2,PD2,PG2 order + 5 sources.
  auto p = vsProvider();
  SramColumnBench b = buildSramColumn(p, 3, kVdd, SramSizing{});
  std::size_t fets = 0;
  for (const auto& e : b.circuit.elements())
    if (dynamic_cast<const spice::MosfetElement*>(e.get()) != nullptr) ++fets;
  EXPECT_EQ(fets, 18u);
}

TEST(RingOscillator, FrequencyDropsWithSupply) {
  auto p1 = vsProvider();
  RingOscillatorBench hi = buildRingOscillator(p1, 3, CellSizing{}, 0.9);
  auto p2 = vsProvider();
  RingOscillatorBench lo = buildRingOscillator(p2, 3, CellSizing{}, 0.7);
  EXPECT_GT(measure::measureOscillation(hi).frequency,
            1.2 * measure::measureOscillation(lo).frequency);
}

}  // namespace
}  // namespace vsstat::circuits
