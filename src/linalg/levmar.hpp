// Levenberg–Marquardt nonlinear least squares with numeric Jacobian and
// box constraints (projected/clamped trial steps).
//
// Every compact-model card fit runs in the multi-fit extraction engine
// (extract::FitCampaign) -- from the one-lane nominal fits of the paper's
// Fig. 1 to thousands of small independent per-die fits -- through the
// reusable workspace form: all scratch (residuals, Jacobian, normal
// equations, pivot array) lives in a caller-owned LevMarWorkspace, so a
// steady-state fit performs zero heap allocations.  The allocating
// overload serves one-off problems such as BPV-2's joint
// variance/correlation solve (extract/bpv2.cpp).
//
// Failure discipline (PR-6 taxonomy): a residual/gradient/normal-matrix
// that goes non-finite throws NonFiniteError; a damped normal matrix that
// stays singular at every damping level throws SingularMatrixError.  A
// trial point whose residual goes non-finite is merely rejected (the model
// blew up *there*, not *here*) -- the step shrinks and the search continues.
#ifndef VSSTAT_LINALG_LEVMAR_HPP
#define VSSTAT_LINALG_LEVMAR_HPP

#include <cstdint>
#include <functional>

#include "linalg/matrix.hpp"

namespace vsstat::linalg {

/// Residual callback: fills r (fixed size) from parameters x.
using ResidualFn = std::function<void(const Vector& x, Vector& r)>;

/// Budget, damping growth and box of one solve.  The stopping tolerances,
/// the damping shrink and the finite-difference step are constants of
/// levmar.cpp.
struct LevMarOptions {
  int maxIterations = 200;
  double initialLambda = 1e-3;
  double lambdaUp = 10.0;
  Vector lowerBounds;                ///< optional, empty == unbounded
  Vector upperBounds;                ///< optional, empty == unbounded
};

struct LevMarResult {
  Vector x;             ///< optimized parameters
  double cost = 0.0;    ///< 0.5 * ||r||^2 at solution
  double initialCost = 0.0;  ///< 0.5 * ||r||^2 at start
  int iterations = 0;
  bool converged = false;
  /// True when the solver stopped because no damped step reduced the cost
  /// (a numerical local optimum).  `converged` stays true for this exit --
  /// historical behaviour every caller relies on -- but multi-fit campaigns
  /// report such lanes as `stalled` rather than cleanly converged.
  bool stalled = false;
  /// Bit j set when x[j] sits exactly on its lower or upper box bound at
  /// the solution (clamped steps land exactly on the bound).  Campaigns
  /// surface this as the bound-pinned fit outcome: the optimum wants to
  /// leave the physical box.
  std::uint32_t activeBounds = 0;
};

/// Caller-owned scratch for the allocation-free solver form.  Reusable
/// across fits; buffers grow to the largest (n, m) seen and then stay.
struct LevMarWorkspace {
  Vector x, xTrial, xPerturbed;
  Vector r, rTrial, rPerturbed;
  Vector jacobian;  ///< m x n, row-major
  Vector g, step;
  Vector h, hDamped;  ///< n x n, row-major
  std::vector<int> pivot;
};

/// Minimizes 0.5*||r(x)||^2 starting from x0.  `residualSize` is the fixed
/// length of r.  Throws InvalidArgumentError on inconsistent bounds,
/// NonFiniteError when the residual/gradient at the current iterate is not
/// finite, SingularMatrixError when the damped normal equations are
/// singular at every damping level.
[[nodiscard]] LevMarResult levenbergMarquardt(const ResidualFn& fn,
                                              const Vector& x0,
                                              std::size_t residualSize,
                                              const LevMarOptions& options = {});

/// Workspace form: identical semantics and bit-identical results, but all
/// scratch lives in `ws` and the result is written into `result` in place
/// (result.x is reused, not reallocated).  Zero heap allocations once the
/// workspace has seen the problem shape.
void levenbergMarquardt(const ResidualFn& fn, const Vector& x0,
                        std::size_t residualSize, const LevMarOptions& options,
                        LevMarWorkspace& ws, LevMarResult& result);

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_LEVMAR_HPP
