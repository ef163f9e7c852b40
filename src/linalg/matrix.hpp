// Dense row-major matrix and vector helpers.
//
// The small dense systems of the extraction side (BPV stacked systems,
// sensitivity and Hessian blocks, NNLS/QR subproblems; tens of unknowns)
// use this value-semantic matrix with O(n^3) direct solvers.  Circuit
// simulation assembles its MNA systems into linalg::SparseMatrix and
// factors them with linalg::SparseLu (linalg/sparse_lu.hpp) instead.
#ifndef VSSTAT_LINALG_MATRIX_HPP
#define VSSTAT_LINALG_MATRIX_HPP

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace vsstat::linalg {

using Vector = std::vector<double>;

/// Smallest pivot magnitude the LU factorizations (SparseLu, DensePivotLu,
/// ComplexLu) accept; a smaller pivot makes the matrix singular.
inline constexpr double kPivotTolerance = 1e-14;

/// Value-semantic dense matrix, row-major storage.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws InvalidArgumentError when out of range.
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] Matrix transposed() const;

  /// Extracts the given columns (in order) into a new matrix.
  [[nodiscard]] Matrix selectColumns(const std::vector<std::size_t>& idx) const;

  void fill(double value) noexcept;

  Matrix& operator-=(const Matrix& rhs);

  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] double* data() noexcept { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);
[[nodiscard]] Vector operator*(const Matrix& a, const Vector& x);

// --- vector helpers ---------------------------------------------------------
[[nodiscard]] double norm2(const Vector& v) noexcept;
[[nodiscard]] double normInf(const Vector& v) noexcept;
[[nodiscard]] Vector sub(const Vector& a, const Vector& b);

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_MATRIX_HPP
