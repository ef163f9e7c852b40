// SRAM static noise margin (paper Fig. 9): butterfly curves from the two
// broken-feedback half-cells and the largest embedded square per lobe.
//
// The square search is the exact rotated-frame construction of Seevinck,
// List and Lohstroh (IEEE JSSC, 1987).  In s = x - y, t = x + y each VTC
// is a function t(s), since no inverter VTC has a gain of +1 or more.  A
// square with its diagonal corners on the two curves has side
// |t1 - t2| / 2 at one s; the gap is piecewise linear with breaks at the
// vertices of either curve, so one merge walk over both vertex lists
// finds the crossings (its zeros) and each lobe's largest square.
#ifndef VSSTAT_MEASURE_SNM_HPP
#define VSSTAT_MEASURE_SNM_HPP

#include <vector>

#include "circuits/benchmarks.hpp"
#include "spice/session.hpp"

namespace vsstat::measure {

/// A voltage transfer curve as a polyline.
struct VtcCurve {
  std::vector<double> x;
  std::vector<double> y;
};

/// The two butterfly curves of one sweep of the shared half-cell input:
/// curve 1 = (Vin, f1(Vin)) from half 1; curve 2 = (f2(Vin), Vin) from
/// half 2 (axes mirrored, as plotted in the paper's butterfly).
struct ButterflyCurves {
  VtcCurve curve1;
  VtcCurve curve2;
};

/// Sweeps the bench on a fresh default session (campaigns keep one per
/// worker and call measureSnm).  Throws NonFiniteError when a swept
/// response is NaN/Inf.
[[nodiscard]] ButterflyCurves measureButterfly(
    circuits::SramButterflyBench& bench, int points = 61);

/// Sides of the largest embedded squares of the two lobes and the cell
/// SNM (their minimum).  A monostable (already-flipped) cell reports 0.
struct SnmResult {
  double lobe1 = 0.0;
  double lobe2 = 0.0;

  [[nodiscard]] double cellSnm() const noexcept {
    return lobe1 < lobe2 ? lobe1 : lobe2;
  }
};

/// Throws InvalidArgumentError on curves of fewer than two vertices or
/// not strictly monotone in x - y.
[[nodiscard]] SnmResult staticNoiseMargin(const ButterflyCurves& curves,
                                          double vdd);

/// Butterfly sweep through `session` + SNM in one call.
[[nodiscard]] SnmResult measureSnm(circuits::SramButterflyBench& bench,
                                   spice::SimSession& session,
                                   int points = 61);

}  // namespace vsstat::measure

#endif  // VSSTAT_MEASURE_SNM_HPP
