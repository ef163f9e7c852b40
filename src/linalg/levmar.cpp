#include "linalg/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace vsstat::linalg {

namespace {

constexpr double kLambdaDown = 0.3;  ///< damping shrink on an accepted step
constexpr double kGradientTolerance = 1e-10;  ///< projected ||J^T r||_inf
constexpr double kStepTolerance = 1e-12;  ///< relative accepted-step size
constexpr double kFdRelStep = 1e-6;  ///< relative finite-difference step

void clampToBounds(Vector& x, const Vector& lo, const Vector& hi) {
  if (!lo.empty()) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::max(x[i], lo[i]);
  }
  if (!hi.empty()) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::min(x[i], hi[i]);
  }
}

double costOf(const Vector& r) {
  double s = 0.0;
  for (double v : r) s += v * v;
  return 0.5 * s;
}

bool allFinite(const Vector& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

/// In-place dense LU solve with partial pivoting on the damped normal
/// matrix (a is n x n row-major, overwritten; b becomes the solution).
/// Returns false -- a untouched semantics don't matter, caller rebuilds it
/// -- when a pivot column is exactly zero: with the Marquardt diagonal
/// boost this means the damped system is singular at working precision.
bool solveInPlaceLu(double* a, int* pivot, double* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double best = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (!(best > 0.0)) return false;  // zero or NaN pivot column
    pivot[k] = static_cast<int>(p);
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
      std::swap(b[k], b[p]);
    }
    const double inv = 1.0 / a[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] * inv;
      if (f == 0.0) continue;
      a[i * n + k] = f;
      for (std::size_t j = k + 1; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      b[i] -= f * b[k];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    double s = b[k];
    for (std::size_t j = k + 1; j < n; ++j) s -= a[k * n + j] * b[j];
    b[k] = s / a[k * n + k];
  }
  return true;
}

std::uint32_t boundMaskOf(const Vector& x, const Vector& lo, const Vector& hi) {
  std::uint32_t mask = 0;
  for (std::size_t j = 0; j < x.size() && j < 32; ++j) {
    const bool atLo = !lo.empty() && x[j] <= lo[j];
    const bool atHi = !hi.empty() && x[j] >= hi[j];
    if (atLo || atHi) mask |= (1u << j);
  }
  return mask;
}

}  // namespace

void levenbergMarquardt(const ResidualFn& fn, const Vector& x0,
                        std::size_t residualSize, const LevMarOptions& options,
                        LevMarWorkspace& ws, LevMarResult& result) {
  const std::size_t n = x0.size();
  const std::size_t m = residualSize;
  require(n > 0 && m >= n, "levmar: need residualSize >= #parameters >= 1");
  require(n <= 32, "levmar: at most 32 parameters (bound-mask width)");
  require(options.lowerBounds.empty() || options.lowerBounds.size() == n,
          "levmar: lower bounds size mismatch");
  require(options.upperBounds.empty() || options.upperBounds.size() == n,
          "levmar: upper bounds size mismatch");
  const Vector& lo = options.lowerBounds;
  const Vector& hi = options.upperBounds;

  ws.x.resize(n);
  ws.xTrial.resize(n);
  ws.xPerturbed.resize(n);
  ws.r.resize(m);
  ws.rTrial.resize(m);
  ws.rPerturbed.resize(m);
  ws.jacobian.resize(m * n);
  ws.g.resize(n);
  ws.step.resize(n);
  ws.h.resize(n * n);
  ws.hDamped.resize(n * n);
  ws.pivot.resize(n);

  Vector& x = ws.x;
  std::copy(x0.begin(), x0.end(), x.begin());
  clampToBounds(x, lo, hi);

  fn(x, ws.r);
  if (!allFinite(ws.r))
    throw NonFiniteError("levmar: non-finite residual at the starting point");
  double cost = costOf(ws.r);
  const double initialCost = cost;

  double lambda = options.initialLambda;
  bool converged = false;
  bool stalled = false;
  int iter = 0;

  for (; iter < options.maxIterations; ++iter) {
    // Numeric Jacobian (forward differences, bound-aware direction).
    for (std::size_t j = 0; j < n; ++j) {
      double h = kFdRelStep * std::max(std::fabs(x[j]), 1e-12);
      std::copy(x.begin(), x.end(), ws.xPerturbed.begin());
      ws.xPerturbed[j] += h;
      if (!hi.empty() && ws.xPerturbed[j] > hi[j]) {
        ws.xPerturbed[j] = x[j] - h;  // step backwards at the upper bound
        h = -h;
      }
      fn(ws.xPerturbed, ws.rPerturbed);
      for (std::size_t i = 0; i < m; ++i)
        ws.jacobian[i * n + j] = (ws.rPerturbed[i] - ws.r[i]) / h;
    }

    // Normal equations pieces: g = J^T r, H = J^T J.
    std::fill(ws.g.begin(), ws.g.end(), 0.0);
    std::fill(ws.h.begin(), ws.h.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = &ws.jacobian[i * n];
      for (std::size_t j = 0; j < n; ++j) {
        ws.g[j] += row[j] * ws.r[i];
        for (std::size_t k = j; k < n; ++k) ws.h[j * n + k] += row[j] * row[k];
      }
    }
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < j; ++k) ws.h[j * n + k] = ws.h[k * n + j];

    // A Jacobian evaluated off a finite residual can still overflow into
    // the normal equations; classify that here instead of letting NaN walk
    // through the solve and the cost comparisons (which would previously
    // exit reporting success).
    if (!allFinite(ws.g) || !allFinite(ws.h))
      throw NonFiniteError("levmar: non-finite Jacobian/normal equations at iteration " +
                           std::to_string(iter));

    // Projected-gradient first-order check: a component pressed against a
    // bound with its descent direction pointing outside the box cannot
    // move, so it is excluded from the optimality measure (the clamped-step
    // analogue of a KKT check).  Without this, bound-pinned fits never
    // formally converge -- the raw gradient stays large forever.
    double pgInf = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const bool blockedLo = !lo.empty() && x[j] <= lo[j] && ws.g[j] > 0.0;
      const bool blockedHi = !hi.empty() && x[j] >= hi[j] && ws.g[j] < 0.0;
      if (!blockedLo && !blockedHi) pgInf = std::max(pgInf, std::fabs(ws.g[j]));
    }
    if (pgInf < kGradientTolerance) {
      converged = true;
      break;
    }

    // Try damped steps, growing lambda until the cost decreases.
    bool accepted = false;
    int attempts = 0;
    int singularAttempts = 0;
    for (int attempt = 0; attempt < 30; ++attempt) {
      ++attempts;
      std::copy(ws.h.begin(), ws.h.end(), ws.hDamped.begin());
      for (std::size_t j = 0; j < n; ++j)
        ws.hDamped[j * n + j] += lambda * std::max(ws.h[j * n + j], 1e-12);
      std::copy(ws.g.begin(), ws.g.end(), ws.step.begin());
      if (!solveInPlaceLu(ws.hDamped.data(), ws.pivot.data(), ws.step.data(),
                          n)) {
        ++singularAttempts;
        lambda *= options.lambdaUp;
        continue;
      }

      for (std::size_t j = 0; j < n; ++j) ws.xTrial[j] = x[j] - ws.step[j];
      clampToBounds(ws.xTrial, lo, hi);

      fn(ws.xTrial, ws.rTrial);
      const double costTrial = costOf(ws.rTrial);
      // A non-finite *trial* cost compares false and is rejected like any
      // cost increase: the model failed at the trial point, so the step
      // shrinks and the search continues from the last good iterate.
      if (costTrial < cost) {
        double stepNormSq = 0.0;
        double xNormSq = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          const double d = ws.xTrial[j] - x[j];
          stepNormSq += d * d;
          xNormSq += x[j] * x[j];
        }
        const double relStep =
            std::sqrt(stepNormSq) / std::max(std::sqrt(xNormSq), 1e-12);
        std::swap(x, ws.xTrial);
        std::swap(ws.r, ws.rTrial);
        const double improvement = (cost - costTrial) / std::max(cost, 1e-300);
        cost = costTrial;
        lambda = std::max(lambda * kLambdaDown, 1e-12);
        accepted = true;
        if (relStep < kStepTolerance || improvement < 1e-12) {
          converged = true;
        }
        break;
      }
      lambda *= options.lambdaUp;
    }
    if (!accepted) {
      // Every damping level produced a singular system: the normal matrix
      // is rank deficient beyond what Marquardt damping can regularize
      // (e.g. exactly collinear parameter columns).  That is a classified
      // failure, not a local optimum.
      if (singularAttempts == attempts)
        throw SingularMatrixError(
            "levmar: damped normal equations singular at every damping level",
            iter);
      stalled = true;
      converged = true;  // stall == numerical local optimum for us
      break;
    }
    if (converged) break;
  }

  result.x.resize(n);
  std::copy(x.begin(), x.end(), result.x.begin());
  result.cost = cost;
  result.initialCost = initialCost;
  result.iterations = iter;
  result.converged = converged;
  result.stalled = stalled;
  result.activeBounds = boundMaskOf(result.x, lo, hi);
}

LevMarResult levenbergMarquardt(const ResidualFn& fn, const Vector& x0,
                                std::size_t residualSize,
                                const LevMarOptions& options) {
  LevMarWorkspace ws;
  LevMarResult result;
  levenbergMarquardt(fn, x0, residualSize, options, ws, result);
  return result;
}

}  // namespace vsstat::linalg
