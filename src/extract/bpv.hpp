// Backward Propagation of Variance (paper Sec. III, Eq. 8-10).
//
// Measured target variances at several geometries are mapped back onto the
// squared Pelgrom coefficients alpha_j^2 through the sensitivity matrix and
// the geometry scaling laws, then solved with non-negative least squares.
// Following the paper:
//   * alpha2 == alpha3 (same line-edge roughness for length and width),
//   * Cinv is NOT an extraction unknown -- the oxide is tightly controlled
//     (sigma < 0.5%), it is "measured" directly and its contribution is
//     subtracted from the left-hand side (Eq. 10),
//   * per-geometry individual solves are also provided (Fig. 2 compares
//     them against the joint solve).
#ifndef VSSTAT_EXTRACT_BPV_HPP
#define VSSTAT_EXTRACT_BPV_HPP

#include <vector>

#include "linalg/matrix.hpp"
#include "models/process_variation.hpp"
#include "models/vs_params.hpp"

namespace vsstat::extract {

/// Measured (or synthesized) target variances at one geometry.
struct GeometryMeasurement {
  models::DeviceGeometry geom;
  double varIdsat = 0.0;       ///< A^2
  double varLog10Ioff = 0.0;   ///< (decades)^2
  double varCgg = 0.0;         ///< F^2
};

struct BpvOptions {
  double vdd = 0.9;
  /// Directly-measured Cinv Pelgrom coefficient in paper units
  /// [nm uF/cm^2]: sigma_Cinv(geom) = aCinvDirect / sqrt(W L).  The paper
  /// measures this through the oxide thickness instead of extracting it by
  /// BPV (the relative sigma stays below 0.5%).
  double aCinvDirect = 0.30;
  /// Tie alpha2 == alpha3 (paper's LER argument).  When false, Leff and
  /// Weff are extracted as separate unknowns.
  bool tieLengthWidth = true;
  /// Ablation: treat Cinv as a BPV unknown instead of measuring it
  /// directly (the paper argues BPV overestimates tightly-controlled
  /// parameters; bench_ablation_bpv quantifies that).
  bool solveCinvByBpv = false;
};

struct BpvResult {
  models::PelgromAlphas alphas;   ///< paper-unit coefficients
  double residualNorm = 0.0;      ///< NNLS residual of the scaled system
  int rowsUsed = 0;               ///< rows surviving degeneracy filtering
  int rowsDropped = 0;
};

/// Joint solve over all geometries (the paper's preferred, more scalable
/// variant).  Throws ExtractionError when no usable rows remain.
[[nodiscard]] BpvResult solveBpv(const models::VsParams& card,
                                 const std::vector<GeometryMeasurement>& meas,
                                 const BpvOptions& options = {});

/// Individual solve from a single geometry (three equations).  Used by the
/// Fig. 2 consistency comparison.
[[nodiscard]] BpvResult solveBpvIndividual(const models::VsParams& card,
                                           const GeometryMeasurement& meas,
                                           const BpvOptions& options = {});

/// Forward propagation: predicted target variances at a geometry from a
/// set of alphas (first-order, Eq. 9).  Used for verification/round-trip
/// tests and the Fig. 3 variance decomposition.
struct VarianceBreakdown {
  // Per-parameter contribution to each target's variance; rows follow
  // Target, columns follow Parameter.
  linalg::Matrix contributions{3, 5, 0.0};

  [[nodiscard]] double totalFor(std::size_t targetRow) const;
};

[[nodiscard]] VarianceBreakdown propagateVariance(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    const models::PelgromAlphas& alphas, double vdd);

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_BPV_HPP
