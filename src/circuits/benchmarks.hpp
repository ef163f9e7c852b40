// The paper's benchmark fixtures (Sec. IV):
//   * fanout-of-3 static INV (Fig. 5/6),
//   * fanout-of-3 static NAND2 under Vdd scaling (Fig. 7),
//   * master-slave register built from NMOS-only pass transistors (Fig. 8a),
//   * 6T SRAM cell butterfly half-cells for READ/HOLD SNM (Fig. 9).
//
// Every fixture owns its Circuit and exposes the probe nodes by id.  All
// transistors are created through the given DeviceProvider in a fixed,
// documented order so Monte Carlo providers yield reproducible instancing.
#ifndef VSSTAT_CIRCUITS_BENCHMARKS_HPP
#define VSSTAT_CIRCUITS_BENCHMARKS_HPP

#include <string>

#include "circuits/cells.hpp"
#include "circuits/provider.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"

namespace vsstat::circuits {

/// Input stimulus shape for the delay benches.
struct StimulusSpec {
  double vdd = 0.9;          ///< supply [V]
  double slew = 12e-12;      ///< input rise/fall time [s]
  double delay = 10e-12;     ///< time of the first (rising) input edge [s]
  double width = 80e-12;     ///< input high time [s]
};

/// Driver gate loaded by `fanout` copies of itself (gate-capacitance load).
struct GateFo3Bench {
  spice::Circuit circuit;
  spice::NodeId in = 0;
  spice::NodeId out = 0;
  spice::NodeId vdd = 0;
  std::string vddSource = "VDD";
  std::string inSource = "VIN";
  double supply = 0.9;
  double tStop = 0.0;        ///< suggested transient window
};

/// Fanout-of-3 inverter (paper Fig. 5/6).  Device order: driver MP, MN,
/// then load k = 0..fanout-1 (MP, MN each).
[[nodiscard]] GateFo3Bench buildInvFo3(DeviceProvider& provider,
                                       const CellSizing& sizing,
                                       const StimulusSpec& stimulus,
                                       int fanout = 3);

/// Fanout-of-3 NAND2 (paper Fig. 7); input A switches, input B tied high.
/// Device order: MPA, MPB, MNA, MNB, then loads as for the inverter.
[[nodiscard]] GateFo3Bench buildNand2Fo3(DeviceProvider& provider,
                                         const CellSizing& sizing,
                                         const StimulusSpec& stimulus,
                                         int fanout = 3);

/// Master-slave register from NMOS-only pass transistors (paper Fig. 8a):
/// master transparent while CLK is low, slave while CLK is high, so data
/// is captured on the rising CLK edge.  Weak feedback inverters plus
/// clocked NMOS pass gates close each loop.
struct DffBench {
  spice::Circuit circuit;
  spice::NodeId d = 0;
  spice::NodeId clk = 0;
  spice::NodeId q = 0;
  spice::NodeId master = 0;  ///< master storage node (diagnostics)
  std::string dSource = "VD";
  std::string clkSource = "VCLK";
  double supply = 0.9;
};

/// Sizing per the paper: inverter P/N = 600/300 nm, pass NMOS 300 nm wide,
/// L = 40 nm everywhere.  Device order: input inverters for clkb, master
/// pass, master fwd/fb inverters + fb pass, slave pass, slave fwd/fb
/// inverters + fb pass, output buffer.
[[nodiscard]] DffBench buildDff(DeviceProvider& provider, double vdd,
                                const CellSizing& inverterSizing,
                                double passWidthNm = 300.0);

/// SRAM butterfly fixture: the cell's two cross-coupled halves broken at
/// the feedback, both driven from one swept input (the standard SNM
/// measurement).  The halves meet only at ideal sources (VDD, VBL, VWL)
/// and no gate draws DC current, so each half's response is the same
/// function of the input as if it were swept alone, and one sweep traces
/// both VTCs.  READ mode: BL/BLB precharged to Vdd, WL on.  HOLD mode:
/// WL off.  Device order: PU1, PD1, PG1, PU2, PD2, PG2 -- i.e. one
/// mismatch draw per physical transistor of the cell.
enum class SramMode { Read, Hold };

struct SramButterflyBench {
  spice::Circuit circuit;
  spice::NodeId in = 0;    ///< swept input shared by both halves
  spice::NodeId out1 = 0;  ///< response of half 1 (== node Q)
  spice::NodeId out2 = 0;  ///< response of half 2 (== node QB)
  std::string sweep1 = "U1";  ///< the source driving `in`
  double supply = 0.9;
};

/// Paper sizing: N/P = 150/40 nm for the cross-coupled pair.  The paper
/// does not size the access transistors; the conventional weaker pass gate
/// (cell ratio ~1.5) is used so the READ butterfly keeps a usable eye, as
/// in the paper's Fig. 9(a).
struct SramSizing {
  double wPullDownNm = 150.0;
  double wPullUpNm = 150.0;
  double wPassNm = 100.0;
  double lengthNm = 40.0;
};

[[nodiscard]] SramButterflyBench buildSramButterfly(DeviceProvider& provider,
                                                    double vdd, SramMode mode,
                                                    const SramSizing& sizing);

/// Closed 6T SRAM cell (feedback intact, unlike the butterfly fixture):
/// cross-coupled inverters Q/QB plus access transistors to driven BL/BLB.
/// Intended for operating-point and small-signal (AC) analyses -- e.g. the
/// supply-noise transfer campaign standing in for the paper's Table IV
/// "SRAM AC" row.  Device order: PU1, PD1, PG1, PU2, PD2, PG2 (matching
/// the butterfly fixture, so Monte Carlo draws map one-to-one).
struct SramCellBench {
  spice::Circuit circuit;
  spice::NodeId q = 0;
  spice::NodeId qb = 0;
  spice::NodeId vdd = 0;
  std::string vddSource = "VDD";
  std::string wlSource = "VWL";
  std::string blSource = "VBL";
  std::string blbSource = "VBLB";
  double supply = 0.9;

  /// Operating-point guess biasing Newton into the Q=1 / QB=0 state (pass
  /// qHigh=false for the mirrored state).  A closed cell is bistable, so
  /// the DC solve must be seeded on the wanted side.
  [[nodiscard]] spice::OperatingPoint stateGuess(bool qHigh = true) const;
};

[[nodiscard]] SramCellBench buildSramCell(DeviceProvider& provider, double vdd,
                                          bool wordlineOn,
                                          const SramSizing& sizing);

/// Ring oscillator of an odd number of inverter stages.  The DC operating
/// point of a ring is its metastable mid-rail state, so the fixture
/// includes a brief kick current pulse into stage 0's output that tips the
/// ring into oscillation at the start of the transient.  Frequency =
/// 1/(2 * stages * stage delay) ties directly to the paper's Fig. 6
/// "frequency = 1/delay" axis.
struct RingOscillatorBench {
  spice::Circuit circuit;
  std::vector<spice::NodeId> taps;  ///< output node of each stage
  spice::NodeId vdd = 0;
  std::string vddSource = "VDD";
  double supply = 0.9;
  double suggestedDt = 5e-12;   ///< largest transient step
  double suggestedTStop = 0.0;  ///< covers ~10 estimated periods
};

/// Device order: stage 0 (MP, MN), stage 1, ...  `stages` must be odd and
/// >= 3.
[[nodiscard]] RingOscillatorBench buildRingOscillator(
    DeviceProvider& provider, int stages, const CellSizing& sizing,
    double vdd);

/// Post-layout-scale fixture: a rows x cols on-chip power-grid mesh of
/// resistors with one diode-connected NMOS leakage load per grid node,
/// fed at corner (0,0).  Sweeping the feed supply characterizes the
/// worst-case IR drop (far corner) under per-device leakage variability --
/// the many-unknown regime (hundreds of nodes, one MNA unknown each) the
/// paper-scale cells never reach, where per-solve LU costs (dense
/// partial-pivot + symbolic pass) rival total device evaluation and the
/// pivot-reuse solver mode pays off.  Mesh segment conductance is kept far
/// above any device conductance so the partial-pivot order is governed by
/// the grid, not the sample draws.
struct PowerGridBench {
  spice::Circuit circuit;
  spice::NodeId feed = 0;     ///< corner (0,0), tied to the swept source
  spice::NodeId farNode = 0;  ///< corner (rows-1, cols-1): worst IR drop
  std::string feedSource = "VGRID";
  double supply = 0.9;
};

/// Device order: node (r, c) in row-major order, one NMOS "ML<r>_<c>"
/// each.  `rows`/`cols` >= 2; `meshOhms` is the per-segment resistance.
[[nodiscard]] PowerGridBench buildPowerGridIrDrop(DeviceProvider& provider,
                                                  int rows, int cols,
                                                  double vdd,
                                                  double meshOhms = 5.0,
                                                  double leakWidthNm = 200.0,
                                                  double lengthNm = 40.0);

/// Grid-ladder fixture: a binary H-tree clock distribution network.  A
/// swept root source drives `levels` levels of resistive segments; every
/// leaf carries a diode-connected NMOS load (one mismatch draw per leaf).
/// Topologically the opposite extreme from the power-grid mesh: a tree
/// eliminates with zero fill-in under a fill-reducing order, so the pair
/// brackets the sparse factorization's behavior (mesh = 2-D fill growth,
/// tree = none).  levels = 9 gives ~1k MNA unknowns.
struct HTreeClockBench {
  spice::Circuit circuit;
  spice::NodeId root = 0;
  std::vector<spice::NodeId> leaves;  ///< breadth-first leaf order
  std::string rootSource = "VCLK";
  double supply = 0.9;
};

/// Device order: leaf k = 0..2^levels-1, one NMOS "ML<k>" each.
/// `levels` >= 1; `segmentOhms` is the per-segment resistance (halved each
/// level down, as physical H-trees taper).
[[nodiscard]] HTreeClockBench buildHTreeClock(DeviceProvider& provider,
                                              int levels, double vdd,
                                              double segmentOhms = 16.0,
                                              double leafWidthNm = 400.0,
                                              double lengthNm = 40.0);

/// Grid-ladder fixture: a column of `cells` closed 6T SRAM cells sharing
/// one BL/BLB bitline pair (cell `selected` has its wordline on, all others
/// off).  The shared bitlines are high-degree hub rows in the MNA system --
/// the adversarial case for a fill-reducing order, which must eliminate
/// the hubs last.  Device order: cell i = 0..cells-1, each PU1, PD1, PG1,
/// PU2, PD2, PG2 (matching buildSramCell, so draws map per-cell).
struct SramColumnBench {
  spice::Circuit circuit;
  spice::NodeId bl = 0;
  spice::NodeId blb = 0;
  spice::NodeId vdd = 0;
  std::vector<spice::NodeId> q;   ///< per-cell storage nodes
  std::vector<spice::NodeId> qb;
  int selected = 0;
  std::string vddSource = "VDD";
  std::string blSource = "VBL";
  std::string blbSource = "VBLB";
  double supply = 0.9;

  /// Newton guess with every cell biased into the Q=1 / QB=0 state (the
  /// column is bistable per cell, so DC solves must be seeded).
  [[nodiscard]] spice::OperatingPoint stateGuess() const;
};

[[nodiscard]] SramColumnBench buildSramColumn(DeviceProvider& provider,
                                              int cells, double vdd,
                                              const SramSizing& sizing,
                                              int selected = 0);

}  // namespace vsstat::circuits

#endif  // VSSTAT_CIRCUITS_BENCHMARKS_HPP
