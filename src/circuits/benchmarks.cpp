#include "circuits/benchmarks.hpp"

#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::circuits {

using models::DeviceType;
using models::geometryNm;
using spice::NodeId;
using spice::SourceWaveform;

namespace {

/// Wires supply + pulsed input; returns tStop covering both output edges.
double attachStimulus(GateFo3Bench& bench, const StimulusSpec& stimulus) {
  bench.supply = stimulus.vdd;
  bench.circuit.addVoltageSource(bench.vddSource, bench.vdd,
                                 bench.circuit.ground(),
                                 SourceWaveform::dc(stimulus.vdd));
  bench.circuit.addVoltageSource(
      bench.inSource, bench.in, bench.circuit.ground(),
      SourceWaveform::pulse(0.0, stimulus.vdd, stimulus.delay, stimulus.slew,
                            stimulus.slew, stimulus.width));
  return stimulus.delay + 2.0 * stimulus.slew + stimulus.width + 60e-12;
}

}  // namespace

GateFo3Bench buildInvFo3(DeviceProvider& provider, const CellSizing& sizing,
                         const StimulusSpec& stimulus, int fanout) {
  GateFo3Bench bench;
  auto& c = bench.circuit;
  bench.in = c.node("in");
  bench.out = c.node("out");
  bench.vdd = c.node("vdd");

  addInverter(c, provider, "XDRV", bench.in, bench.out, bench.vdd, sizing);
  for (int k = 0; k < fanout; ++k) {
    const std::string prefix = "XL" + std::to_string(k);
    const NodeId lo = c.node(prefix + ".out");
    addInverter(c, provider, prefix, bench.out, lo, bench.vdd, sizing);
  }
  bench.tStop = attachStimulus(bench, stimulus);
  return bench;
}

GateFo3Bench buildNand2Fo3(DeviceProvider& provider, const CellSizing& sizing,
                           const StimulusSpec& stimulus, int fanout) {
  GateFo3Bench bench;
  auto& c = bench.circuit;
  bench.in = c.node("in");
  bench.out = c.node("out");
  bench.vdd = c.node("vdd");

  // Input A switches; input B tied to Vdd so the gate inverts A.
  addNand2(c, provider, "XDRV", bench.in, bench.vdd, bench.out, bench.vdd,
           sizing);
  for (int k = 0; k < fanout; ++k) {
    const std::string prefix = "XL" + std::to_string(k);
    const NodeId lo = c.node(prefix + ".out");
    addNand2(c, provider, prefix, bench.out, bench.vdd, lo, bench.vdd, sizing);
  }
  bench.tStop = attachStimulus(bench, stimulus);
  return bench;
}

DffBench buildDff(DeviceProvider& provider, double vdd,
                  const CellSizing& inverterSizing, double passWidthNm) {
  DffBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;

  const NodeId vddN = c.node("vdd");
  bench.d = c.node("d");
  bench.clk = c.node("clk");
  const NodeId clkb = c.node("clkb");
  const NodeId m1 = c.node("m1");    // master storage (= D while transparent)
  const NodeId m2 = c.node("m2");    // master output (= !D)
  const NodeId mfb = c.node("mfb");  // master feedback
  const NodeId s1 = c.node("s1");    // slave storage (= !D after capture)
  bench.q = c.node("q");             // slave inverter output (= D)
  const NodeId sfb = c.node("sfb");  // slave feedback
  const NodeId qbar = c.node("qbar");
  bench.master = m1;

  const double lNm = inverterSizing.lengthNm;
  // Weak keepers: half-width feedback inverters so writes win the fight.
  const CellSizing weak = inverterSizing.scaled(0.5);

  // Local clock inversion.
  addInverter(c, provider, "XCKB", bench.clk, clkb, vddN, inverterSizing);

  // Master: transparent while CLK low (pass gated by clkb); keeper loop
  // closes while CLK high.
  addNmosPass(c, provider, "MPASS1", bench.d, m1, clkb, passWidthNm, lNm);
  addInverter(c, provider, "XM1", m1, m2, vddN, inverterSizing);
  addInverter(c, provider, "XM2", m2, mfb, vddN, weak);
  addNmosPass(c, provider, "MFB1", mfb, m1, bench.clk, passWidthNm, lNm);

  // Slave: transparent while CLK high; keeper closes while CLK low.
  addNmosPass(c, provider, "MPASS2", m2, s1, bench.clk, passWidthNm, lNm);
  addInverter(c, provider, "XS1", s1, bench.q, vddN, inverterSizing);
  addInverter(c, provider, "XS2", bench.q, sfb, vddN, weak);
  addNmosPass(c, provider, "MFB2", sfb, s1, clkb, passWidthNm, lNm);

  // Complement output (also loads Q realistically).
  addInverter(c, provider, "XQ", bench.q, qbar, vddN, inverterSizing);

  c.addVoltageSource("VDD", vddN, c.ground(), SourceWaveform::dc(vdd));
  c.addVoltageSource(bench.dSource, bench.d, c.ground(),
                     SourceWaveform::dc(0.0));
  c.addVoltageSource(bench.clkSource, bench.clk, c.ground(),
                     SourceWaveform::dc(0.0));
  return bench;
}

SramButterflyBench buildSramButterfly(DeviceProvider& provider, double vdd,
                                      SramMode mode, const SramSizing& sizing) {
  SramButterflyBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;

  const NodeId vddN = c.node("vdd");
  const NodeId wl = c.node("wl");
  const NodeId bl = c.node("bl");

  bench.in = c.node("u");
  bench.out1 = c.node("y1");
  bench.out2 = c.node("y2");

  const auto addHalf = [&](int half, NodeId in, NodeId out) {
    const std::string suffix = std::to_string(half);
    {
      DeviceInstance pu =
          provider.make(DeviceType::Pmos, "MPU" + suffix,
                        geometryNm(sizing.wPullUpNm, sizing.lengthNm));
      c.addMosfet("MPU" + suffix, out, in, vddN, std::move(pu.model),
                  pu.geometry);
    }
    {
      DeviceInstance pd =
          provider.make(DeviceType::Nmos, "MPD" + suffix,
                        geometryNm(sizing.wPullDownNm, sizing.lengthNm));
      c.addMosfet("MPD" + suffix, out, in, c.ground(), std::move(pd.model),
                  pd.geometry);
    }
    {
      DeviceInstance pg =
          provider.make(DeviceType::Nmos, "MPG" + suffix,
                        geometryNm(sizing.wPassNm, sizing.lengthNm));
      c.addMosfet("MPG" + suffix, bl, wl, out, std::move(pg.model),
                  pg.geometry);
    }
  };
  addHalf(1, bench.in, bench.out1);
  addHalf(2, bench.in, bench.out2);

  c.addVoltageSource("VDD", vddN, c.ground(), SourceWaveform::dc(vdd));
  c.addVoltageSource("VBL", bl, c.ground(), SourceWaveform::dc(vdd));
  c.addVoltageSource("VWL", wl, c.ground(),
                     SourceWaveform::dc(mode == SramMode::Read ? vdd : 0.0));
  c.addVoltageSource(bench.sweep1, bench.in, c.ground(),
                     SourceWaveform::dc(0.0));
  return bench;
}

spice::OperatingPoint SramCellBench::stateGuess(bool qHigh) const {
  spice::OperatingPoint guess;
  guess.nodeVoltages.assign(circuit.nodeCount(), 0.0);
  guess.nodeVoltages[static_cast<std::size_t>(vdd)] = supply;
  guess.nodeVoltages[static_cast<std::size_t>(q)] = qHigh ? supply : 0.0;
  guess.nodeVoltages[static_cast<std::size_t>(qb)] = qHigh ? 0.0 : supply;
  return guess;
}

SramCellBench buildSramCell(DeviceProvider& provider, double vdd,
                            bool wordlineOn, const SramSizing& sizing) {
  SramCellBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;

  bench.vdd = c.node("vdd");
  const NodeId wl = c.node("wl");
  const NodeId bl = c.node("bl");
  const NodeId blb = c.node("blb");
  bench.q = c.node("q");
  bench.qb = c.node("qb");

  // One cross-coupled half: inverter driving `out` from `in` plus the
  // access transistor tying `out` to its bitline.  Same device order as
  // the butterfly fixture.
  const auto addHalf = [&](int half, NodeId in, NodeId out, NodeId bitline) {
    const std::string suffix = std::to_string(half);
    {
      DeviceInstance pu =
          provider.make(DeviceType::Pmos, "MPU" + suffix,
                        geometryNm(sizing.wPullUpNm, sizing.lengthNm));
      c.addMosfet("MPU" + suffix, out, in, bench.vdd, std::move(pu.model),
                  pu.geometry);
    }
    {
      DeviceInstance pd =
          provider.make(DeviceType::Nmos, "MPD" + suffix,
                        geometryNm(sizing.wPullDownNm, sizing.lengthNm));
      c.addMosfet("MPD" + suffix, out, in, c.ground(), std::move(pd.model),
                  pd.geometry);
    }
    {
      DeviceInstance pg =
          provider.make(DeviceType::Nmos, "MPG" + suffix,
                        geometryNm(sizing.wPassNm, sizing.lengthNm));
      c.addMosfet("MPG" + suffix, bitline, wl, out, std::move(pg.model),
                  pg.geometry);
    }
  };
  addHalf(1, bench.qb, bench.q, bl);
  addHalf(2, bench.q, bench.qb, blb);

  c.addVoltageSource(bench.vddSource, bench.vdd, c.ground(),
                     SourceWaveform::dc(vdd));
  c.addVoltageSource(bench.wlSource, wl, c.ground(),
                     SourceWaveform::dc(wordlineOn ? vdd : 0.0));
  c.addVoltageSource(bench.blSource, bl, c.ground(), SourceWaveform::dc(vdd));
  c.addVoltageSource(bench.blbSource, blb, c.ground(),
                     SourceWaveform::dc(vdd));
  return bench;
}

RingOscillatorBench buildRingOscillator(DeviceProvider& provider, int stages,
                                        const CellSizing& sizing,
                                        double vdd) {
  require(stages >= 3 && stages % 2 == 1,
          "buildRingOscillator: stages must be odd and >= 3");

  RingOscillatorBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;
  bench.vdd = c.node("vdd");
  c.addVoltageSource(bench.vddSource, bench.vdd, c.ground(),
                     SourceWaveform::dc(vdd));

  bench.taps.reserve(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s)
    bench.taps.push_back(c.node("ring" + std::to_string(s)));

  for (int s = 0; s < stages; ++s) {
    const NodeId in = bench.taps[static_cast<std::size_t>(s)];
    const NodeId out =
        bench.taps[static_cast<std::size_t>((s + 1) % stages)];
    addInverter(c, provider, "XS" + std::to_string(s), in, out, bench.vdd,
                sizing);
  }

  // Kick: a short current pulse into stage 0's output breaks the
  // metastable DC symmetry.  50 uA for 4 ps moves a few-fF node by a few
  // hundred mV -- plenty, while staying far from any damage regime.
  c.addCurrentSource("IKICK", c.ground(), bench.taps[1],
                     SourceWaveform::pulse(0.0, 50e-6, 1e-12, 0.5e-12,
                                           0.5e-12, 4e-12));

  // ~10 periods at a conservative 12 ps/stage estimate.
  bench.suggestedTStop =
      10.0 * 2.0 * static_cast<double>(stages) * 12e-12;
  return bench;
}

PowerGridBench buildPowerGridIrDrop(DeviceProvider& provider, int rows,
                                    int cols, double vdd, double meshOhms,
                                    double leakWidthNm, double lengthNm) {
  require(rows >= 2 && cols >= 2,
          "buildPowerGridIrDrop: rows and cols must be >= 2");
  require(meshOhms > 0.0, "buildPowerGridIrDrop: meshOhms must be positive");

  PowerGridBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;

  std::vector<NodeId> grid;
  grid.reserve(static_cast<std::size_t>(rows) *
               static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r)
    for (int col = 0; col < cols; ++col)
      grid.push_back(
          c.node("g" + std::to_string(r) + "_" + std::to_string(col)));
  const auto at = [&](int r, int col) {
    return grid[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(col)];
  };
  bench.feed = at(0, 0);
  bench.farNode = at(rows - 1, cols - 1);

  // Mesh segments between 4-neighbors.  A diode-connected leakage NMOS at
  // every node draws its sample's current; diode connection keeps the DC
  // transfer monotone, so the supply sweep warm-starts cleanly.
  for (int r = 0; r < rows; ++r) {
    for (int col = 0; col < cols; ++col) {
      const std::string suffix =
          std::to_string(r) + "_" + std::to_string(col);
      if (col + 1 < cols)
        c.addResistor("RH" + suffix, at(r, col), at(r, col + 1), meshOhms);
      if (r + 1 < rows)
        c.addResistor("RV" + suffix, at(r, col), at(r + 1, col), meshOhms);
      DeviceInstance leak = provider.make(DeviceType::Nmos, "ML" + suffix,
                                          geometryNm(leakWidthNm, lengthNm));
      c.addMosfet("ML" + suffix, at(r, col), at(r, col), c.ground(),
                  std::move(leak.model), leak.geometry);
    }
  }

  c.addVoltageSource(bench.feedSource, bench.feed, c.ground(),
                     SourceWaveform::dc(vdd));
  return bench;
}

HTreeClockBench buildHTreeClock(DeviceProvider& provider, int levels,
                                double vdd, double segmentOhms,
                                double leafWidthNm, double lengthNm) {
  require(levels >= 1, "buildHTreeClock: levels must be >= 1");
  require(segmentOhms > 0.0, "buildHTreeClock: segmentOhms must be positive");

  HTreeClockBench bench;
  bench.supply = vdd;
  auto& c = bench.circuit;

  // Breadth-first binary tree of nodes: level l has 2^l of them.  Segment
  // resistance halves with depth, the usual tapered-H-tree sizing.
  bench.root = c.node("t0_0");
  std::vector<NodeId> frontier{bench.root};
  double ohms = segmentOhms;
  for (int l = 1; l <= levels; ++l) {
    std::vector<NodeId> next;
    next.reserve(frontier.size() * 2);
    for (std::size_t p = 0; p < frontier.size(); ++p) {
      for (int side = 0; side < 2; ++side) {
        const std::string suffix = std::to_string(l) + "_" +
                                   std::to_string(2 * p + static_cast<std::size_t>(side));
        const NodeId child = c.node("t" + suffix);
        c.addResistor("RT" + suffix, frontier[p], child, ohms);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
    ohms *= 0.5;
  }
  bench.leaves = frontier;

  // One diode-connected NMOS load per leaf, same idiom as the power grid:
  // each draws its sample's leakage and keeps the DC transfer monotone.
  for (std::size_t k = 0; k < bench.leaves.size(); ++k) {
    const std::string name = "ML" + std::to_string(k);
    DeviceInstance leak = provider.make(DeviceType::Nmos, name,
                                        geometryNm(leafWidthNm, lengthNm));
    c.addMosfet(name, bench.leaves[k], bench.leaves[k], c.ground(),
                std::move(leak.model), leak.geometry);
  }

  c.addVoltageSource(bench.rootSource, bench.root, c.ground(),
                     SourceWaveform::dc(vdd));
  return bench;
}

spice::OperatingPoint SramColumnBench::stateGuess() const {
  spice::OperatingPoint guess;
  guess.nodeVoltages.assign(circuit.nodeCount(), 0.0);
  guess.nodeVoltages[static_cast<std::size_t>(vdd)] = supply;
  guess.nodeVoltages[static_cast<std::size_t>(bl)] = supply;
  guess.nodeVoltages[static_cast<std::size_t>(blb)] = supply;
  for (const spice::NodeId node : q)
    guess.nodeVoltages[static_cast<std::size_t>(node)] = supply;
  return guess;
}

SramColumnBench buildSramColumn(DeviceProvider& provider, int cells,
                                double vdd, const SramSizing& sizing,
                                int selected) {
  require(cells >= 1, "buildSramColumn: cells must be >= 1");
  require(selected >= 0 && selected < cells,
          "buildSramColumn: selected cell out of range");

  SramColumnBench bench;
  bench.supply = vdd;
  bench.selected = selected;
  auto& c = bench.circuit;

  bench.vdd = c.node("vdd");
  bench.bl = c.node("bl");
  bench.blb = c.node("blb");
  // Two wordline rails instead of one source per cell: the selected cell
  // hangs off the on-rail, everyone else off the off-rail.
  const NodeId wlOn = c.node("wl_on");
  const NodeId wlOff = c.node("wl_off");

  bench.q.reserve(static_cast<std::size_t>(cells));
  bench.qb.reserve(static_cast<std::size_t>(cells));
  for (int i = 0; i < cells; ++i) {
    const std::string cell = std::to_string(i);
    const NodeId q = c.node("q" + cell);
    const NodeId qb = c.node("qb" + cell);
    bench.q.push_back(q);
    bench.qb.push_back(qb);
    const NodeId wl = i == selected ? wlOn : wlOff;
    const auto addHalf = [&](int half, NodeId in, NodeId out, NodeId bitline) {
      const std::string suffix = cell + "_" + std::to_string(half);
      {
        DeviceInstance pu =
            provider.make(DeviceType::Pmos, "MPU" + suffix,
                          geometryNm(sizing.wPullUpNm, sizing.lengthNm));
        c.addMosfet("MPU" + suffix, out, in, bench.vdd, std::move(pu.model),
                    pu.geometry);
      }
      {
        DeviceInstance pd =
            provider.make(DeviceType::Nmos, "MPD" + suffix,
                          geometryNm(sizing.wPullDownNm, sizing.lengthNm));
        c.addMosfet("MPD" + suffix, out, in, c.ground(), std::move(pd.model),
                    pd.geometry);
      }
      {
        DeviceInstance pg =
            provider.make(DeviceType::Nmos, "MPG" + suffix,
                          geometryNm(sizing.wPassNm, sizing.lengthNm));
        c.addMosfet("MPG" + suffix, bitline, wl, out, std::move(pg.model),
                    pg.geometry);
      }
    };
    addHalf(1, qb, q, bench.bl);
    addHalf(2, q, qb, bench.blb);
  }

  c.addVoltageSource(bench.vddSource, bench.vdd, c.ground(),
                     SourceWaveform::dc(vdd));
  c.addVoltageSource("VWLON", wlOn, c.ground(), SourceWaveform::dc(vdd));
  c.addVoltageSource("VWLOFF", wlOff, c.ground(), SourceWaveform::dc(0.0));
  c.addVoltageSource(bench.blSource, bench.bl, c.ground(),
                     SourceWaveform::dc(vdd));
  c.addVoltageSource(bench.blbSource, bench.blb, c.ground(),
                     SourceWaveform::dc(vdd));
  return bench;
}

}  // namespace circuits
