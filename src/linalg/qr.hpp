// Householder QR factorization and linear least squares: the subproblem
// solver inside NNLS, which solves the BPV extraction's stacked
// over-determined system (Eq. 10 of the paper).
#ifndef VSSTAT_LINALG_QR_HPP
#define VSSTAT_LINALG_QR_HPP

#include "linalg/matrix.hpp"

namespace vsstat::linalg {

/// QR of an m x n matrix with m >= n via Householder reflections.
class QrFactorization {
 public:
  explicit QrFactorization(Matrix a);

  /// Minimizes ||A x - b||_2.  Throws ConvergenceError when A is rank
  /// deficient to working precision.
  [[nodiscard]] Vector solveLeastSquares(const Vector& b) const;

  [[nodiscard]] std::size_t rows() const noexcept { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return qr_.cols(); }

 private:
  void applyQt(Vector& v) const;

  Matrix qr_;       // Householder vectors below diagonal, R on/above
  Vector betas_;    // Householder scalars
};

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_QR_HPP
