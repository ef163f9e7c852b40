// SRAM static noise margin (paper Fig. 9): butterfly curves from the two
// broken-feedback half-cells and the largest embedded square per lobe.
//
// The square search is geometric and exact up to polyline resolution:
// a square of side s with axis-parallel sides fits between the curves of a
// lobe iff curve 1 translated by (+s, -s) (resp. (-s, +s) for the other
// lobe) still intersects curve 2; SNM is found by bisecting on s until the
// intersection disappears.  This is equivalent to Seevinck's 45-degree
// formulation but robust to curves that are multivalued after rotation.
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

/// Sweeps the half-cell inputs and returns the two butterfly curves:
/// curve 1 = (Vin, f1(Vin)) from half 1; curve 2 = (f2(Vin), Vin) from
/// half 2 (axes mirrored, as plotted in the paper's butterfly).
struct ButterflyCurves {
  VtcCurve curve1;
  VtcCurve curve2;
};

/// Sweeps through `session`, a spice::SimSession bound to the bench's
/// circuit (build-once campaigns keep one per worker).  Throws
/// NonFiniteError when a swept response is NaN/Inf.
[[nodiscard]] ButterflyCurves measureButterfly(
    circuits::SramButterflyBench& bench, spice::SimSession& session,
    int points = 61);

/// One-shot variant: the overload above on a fresh default session.
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

[[nodiscard]] SnmResult staticNoiseMargin(const ButterflyCurves& curves,
                                          double vdd);

/// Butterfly sweep through `session` + SNM in one call.
[[nodiscard]] SnmResult measureSnm(circuits::SramButterflyBench& bench,
                                   spice::SimSession& session,
                                   int points = 61);

/// One-shot variant: the overload above on a fresh default session.
[[nodiscard]] SnmResult measureSnm(circuits::SramButterflyBench& bench,
                                   int points = 61);

/// True when two polylines intersect (exposed for tests).
[[nodiscard]] bool polylinesIntersect(const VtcCurve& a, const VtcCurve& b);

}  // namespace vsstat::measure

#endif  // VSSTAT_MEASURE_SNM_HPP
