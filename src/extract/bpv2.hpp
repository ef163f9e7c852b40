// Second-order and correlation-aware BPV -- the *full* paper Eq. (8).
//
// The production flow (bpv.hpp) uses the simplified Eq. (9): independent
// parameters, first-order sensitivities.  The paper justifies that with
// two claims: (a) the linear approximation of e_i(p) "is sufficiently
// accurate", and (b) the chosen p_j can be treated as independent.  This
// module implements the machinery to *test* those claims rather than
// assume them:
//
//   * targetHessians(): d2 e_i / dp_j dp_k by central differences, the
//     second-order term of Eq. (8);
//   * propagateVarianceSecondOrder(): Gaussian moment propagation
//     Var[e] = g' S g + 0.5 tr((H S)^2) for a full parameter covariance
//     S = D R D (sigmas D, correlation R), plus the mean shift
//     0.5 tr(H S);
//   * solveBpvCorrelated(): BPV extraction when the r_jk cross terms of
//     Eq. (8) are NOT dropped -- the bilinear terms are folded into the
//     left-hand side and the system re-solved to a fixed point.
//
// bench_ablation_bpv2 uses these to quantify both paper assumptions.
#ifndef VSSTAT_EXTRACT_BPV2_HPP
#define VSSTAT_EXTRACT_BPV2_HPP

#include <array>

#include "extract/bpv.hpp"
#include "extract/sensitivity.hpp"
#include "linalg/matrix.hpp"

namespace vsstat::extract {

/// d2(e_i)/dp_j dp_k at the nominal card, one symmetric
/// kParameterCount x kParameterCount matrix per target (SI units).
[[nodiscard]] std::array<linalg::Matrix, kTargetCount> targetHessians(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    double vdd);

/// Identity correlation (the paper's independence assumption).
[[nodiscard]] linalg::Matrix independentCorrelation();

/// Validates a parameter correlation matrix: square kParameterCount,
/// symmetric, unit diagonal, entries in [-1, 1].  Throws
/// InvalidArgumentError otherwise.
void validateCorrelation(const linalg::Matrix& r);

/// One target's Gaussian moment propagation split by order.
struct SecondOrderVariance {
  double firstOrder = 0.0;   ///< g' S g (includes r_jk cross terms)
  double secondOrder = 0.0;  ///< 0.5 tr((H S)^2)
  double meanShift = 0.0;    ///< E[e] - e(p0) = 0.5 tr(H S)

  [[nodiscard]] double total() const noexcept {
    return firstOrder + secondOrder;
  }
};

/// Second-order Gaussian propagation of all three targets for sigmas from
/// the Pelgrom alphas at `geom` and the given parameter correlation.
[[nodiscard]] std::array<SecondOrderVariance, kTargetCount>
propagateVarianceSecondOrder(const models::VsParams& card,
                             const models::DeviceGeometry& geom,
                             const models::PelgromAlphas& alphas,
                             const linalg::Matrix& correlation, double vdd);

struct CorrelatedBpvResult {
  models::PelgromAlphas alphas;
  int outerIterations = 0;
  bool converged = false;
  double residualNorm = 0.0;  ///< NNLS residual of the final inner solve
};

/// BPV with the Eq. (8) correlation cross terms retained, in the paper's
/// default flow (BpvOptions{}: alpha2 == alpha3, Cinv measured directly).
/// The full forward model -- diagonal plus bilinear r_jk cross terms -- is
/// fitted directly in alpha space with bounded Levenberg-Marquardt (60
/// iterations at most), initialized from the independent solve
/// (zero-pinned coefficients are re-seeded at their single-parameter
/// variance-budget scale).  With r = I the independent solution is already
/// a zero-residual point and is returned unchanged.
[[nodiscard]] CorrelatedBpvResult solveBpvCorrelated(
    const models::VsParams& card,
    const std::vector<GeometryMeasurement>& meas,
    const linalg::Matrix& correlation);

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_BPV2_HPP
