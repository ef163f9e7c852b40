// Dense complex matrix and LU solver for small-signal (AC) analysis.
//
// The AC system (G + jwC) x = b is complex-symmetric in structure but not
// Hermitian, so a general complex LU with partial pivoting is the right
// tool.  Sizes match the MNA systems (tens of unknowns), hence the same
// value-semantic dense design as linalg::Matrix.
#ifndef VSSTAT_LINALG_COMPLEX_HPP
#define VSSTAT_LINALG_COMPLEX_HPP

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace vsstat::linalg {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// Value-semantic dense complex matrix, row-major storage.
class ComplexMatrix {
 public:
  ComplexMatrix() = default;
  ComplexMatrix(std::size_t rows, std::size_t cols, Complex fill = {});

  /// Builds `re + j*im`; shapes must match (im may be empty for a real
  /// matrix promoted to complex).
  static ComplexMatrix fromRealImag(const Matrix& re, const Matrix& im);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] Complex& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] Complex operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  void fill(Complex value) noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ComplexVector data_;
};

[[nodiscard]] ComplexVector operator*(const ComplexMatrix& a,
                                      const ComplexVector& x);

/// Complex LU factorization with partial pivoting (by modulus).
class ComplexLu {
 public:
  /// Factors a square matrix.  Throws ConvergenceError on numerical
  /// singularity (pivot modulus below `pivotTolerance`).
  explicit ComplexLu(ComplexMatrix a, double pivotTolerance = 1e-14);

  /// Solves A x = b.
  [[nodiscard]] ComplexVector solve(const ComplexVector& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  ComplexMatrix lu_;
  std::vector<std::size_t> pivots_;
};

/// One-shot convenience solve of A x = b.
[[nodiscard]] ComplexVector complexLuSolve(const ComplexMatrix& a,
                                           const ComplexVector& b);

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_COMPLEX_HPP
