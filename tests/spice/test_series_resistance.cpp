// A VS card's series resistances (Rs, Rd) enter the circuit condensed: the
// Newton iterate carries each device's drain current and the device bank
// eliminates it lane by lane (spice/device_bank.hpp).  The reference for
// that stamp is plain MNA physics: the same circuit with an rs = rd = 0
// card and explicit resistors to internal source and drain nodes.  The
// default cards have rs == rd, so the condensed model's source/drain swap
// under reversed vds matches resistors tied to the terminals.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "circuits/benchmarks.hpp"
#include "measure/snm.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"

namespace vsstat::spice {
namespace {

/// Adds a VS device from `card`: condensed (the card as is) or explicit
/// (an rs = rd = 0 copy of the card behind resistors of rs/W and rd/W to
/// internal source and drain nodes).
void addVsDevice(Circuit& c, const std::string& name, NodeId d, NodeId g,
                 NodeId s, const models::VsParams& card,
                 const models::DeviceGeometry& geom, bool explicitR) {
  if (!explicitR) {
    c.addMosfet(name, d, g, s, std::make_unique<models::VsModel>(card), geom);
    return;
  }
  models::VsParams intrinsic = card;
  intrinsic.rs = 0.0;
  intrinsic.rd = 0.0;
  const NodeId di = c.node(name + "_di");
  const NodeId si = c.node(name + "_si");
  c.addResistor("R" + name + "_d", d, di, card.rd / geom.width);
  c.addResistor("R" + name + "_s", s, si, card.rs / geom.width);
  c.addMosfet(name, di, g, si, std::make_unique<models::VsModel>(intrinsic),
              geom);
}

/// Drain current of one device biased by sources at (vd, vg), source
/// grounded, solved by a default session.
double drainCurrent(const models::VsParams& card, double vg, double vd,
                    bool explicitR) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.addVoltageSource("VD", d, c.ground(), SourceWaveform::dc(vd));
  c.addVoltageSource("VG", g, c.ground(), SourceWaveform::dc(vg));
  addVsDevice(c, "M", d, g, c.ground(), card, models::geometryNm(300, 40),
              explicitR);
  // The source current flows into the source's positive terminal.
  return -sourceCurrent(c, "VD", dcOperatingPoint(c));
}

/// The Newton tolerances (1e-7 V on node voltages, 1e-9 A on KCL) bound
/// how closely two converged solutions of the same physics agree.
constexpr double kCurrentTolA = 1e-9;
constexpr double kVoltageTolV = 1e-7;

void expectIvGridMatchesExplicitResistors(const models::VsParams& card,
                                          double polarity) {
  for (const double vg : {0.0, 0.3, 0.6, 0.9}) {
    for (const double vd : {-0.9, -0.3, -0.05, 0.05, 0.45, 0.9}) {
      const double condensed =
          drainCurrent(card, polarity * vg, polarity * vd, false);
      const double explicitR =
          drainCurrent(card, polarity * vg, polarity * vd, true);
      EXPECT_NEAR(condensed, explicitR, kCurrentTolA)
          << "vg = " << polarity * vg << ", vd = " << polarity * vd;
    }
  }
}

TEST(SeriesResistance, NmosIvGridMatchesExplicitResistors) {
  expectIvGridMatchesExplicitResistors(models::defaultVsNmos(), 1.0);
}

TEST(SeriesResistance, PmosIvGridMatchesExplicitResistors) {
  expectIvGridMatchesExplicitResistors(models::defaultVsPmos(), -1.0);
}

/// The READ butterfly of circuits::buildSramButterfly with nominal cards,
/// its devices condensed or behind explicit resistors.
circuits::SramButterflyBench readButterfly(bool explicitR) {
  const circuits::SramSizing sizing;
  circuits::SramButterflyBench bench;
  Circuit& c = bench.circuit;
  const NodeId vdd = c.node("vdd");
  const NodeId wl = c.node("wl");
  const NodeId bl = c.node("bl");
  bench.in = c.node("u");
  bench.out1 = c.node("y1");
  bench.out2 = c.node("y2");
  for (const auto& [half, out] : {std::pair{1, bench.out1},
                                  std::pair{2, bench.out2}}) {
    const std::string suffix = std::to_string(half);
    addVsDevice(c, "MPU" + suffix, out, bench.in, vdd,
                models::defaultVsPmos(),
                models::geometryNm(sizing.wPullUpNm, sizing.lengthNm),
                explicitR);
    addVsDevice(c, "MPD" + suffix, out, bench.in, c.ground(),
                models::defaultVsNmos(),
                models::geometryNm(sizing.wPullDownNm, sizing.lengthNm),
                explicitR);
    addVsDevice(c, "MPG" + suffix, bl, wl, out, models::defaultVsNmos(),
                models::geometryNm(sizing.wPassNm, sizing.lengthNm),
                explicitR);
  }
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VBL", bl, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource("VWL", wl, c.ground(), SourceWaveform::dc(0.9));
  c.addVoltageSource(bench.sweep1, bench.in, c.ground(),
                     SourceWaveform::dc(0.0));
  return bench;
}

TEST(SeriesResistance, SramSnmMatchesExplicitResistors) {
  circuits::SramButterflyBench condensed = readButterfly(false);
  circuits::SramButterflyBench explicitR = readButterfly(true);
  SimSession condensedSession(condensed.circuit);
  SimSession explicitSession(explicitR.circuit);
  const double snm =
      measure::measureSnm(condensed, condensedSession, 45).cellSnm();
  const double reference =
      measure::measureSnm(explicitR, explicitSession, 45).cellSnm();
  ASSERT_GT(reference, 0.05);
  EXPECT_NEAR(snm, reference, kVoltageTolV);
}

TEST(SeriesResistance, LoneDeviceReadsTheModelCurrent) {
  // Every terminal on a source: the solved source current is the device's
  // series-resistance solution, which VsModel::evaluate iterates to its
  // own tolerance.
  const models::VsModel model(models::defaultVsNmos());
  const models::DeviceGeometry geom = models::geometryNm(300, 40);
  for (const double vg : {0.0, 0.3, 0.9}) {
    for (const double vd : {-0.3, 0.05, 0.9}) {
      Circuit c;
      const NodeId d = c.node("d");
      const NodeId g = c.node("g");
      c.addVoltageSource("VD", d, c.ground(), SourceWaveform::dc(vd));
      c.addVoltageSource("VG", g, c.ground(), SourceWaveform::dc(vg));
      c.addMosfet("M", d, g, c.ground(),
                  std::make_unique<models::VsModel>(model), geom);
      const double solved = -sourceCurrent(c, "VD", dcOperatingPoint(c));
      const double expected = model.evaluate(geom, vg, vd).id;
      EXPECT_NEAR(solved, expected, 1e-6 * std::fabs(expected))
          << "vg = " << vg << ", vd = " << vd;
    }
  }
}

}  // namespace
}  // namespace vsstat::spice
