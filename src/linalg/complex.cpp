#include "linalg/complex.hpp"

#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace vsstat::linalg {

ComplexMatrix::ComplexMatrix(std::size_t rows, std::size_t cols, Complex fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

ComplexMatrix ComplexMatrix::fromRealImag(const Matrix& re, const Matrix& im) {
  require(im.empty() || (im.rows() == re.rows() && im.cols() == re.cols()),
          "ComplexMatrix::fromRealImag: shape mismatch");
  ComplexMatrix m(re.rows(), re.cols());
  for (std::size_t r = 0; r < re.rows(); ++r) {
    for (std::size_t c = 0; c < re.cols(); ++c) {
      m(r, c) = Complex(re(r, c), im.empty() ? 0.0 : im(r, c));
    }
  }
  return m;
}

void ComplexMatrix::fill(Complex value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

ComplexVector operator*(const ComplexMatrix& a, const ComplexVector& x) {
  require(a.cols() == x.size(), "ComplexMatrix * vector: shape mismatch");
  ComplexVector y(a.rows(), Complex{});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Complex acc{};
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

ComplexLu::ComplexLu(ComplexMatrix a, double pivotTolerance)
    : lu_(std::move(a)), pivots_(lu_.rows()) {
  require(lu_.rows() == lu_.cols(), "ComplexLu: matrix must be square");
  const std::size_t n = lu_.rows();
  std::iota(pivots_.begin(), pivots_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot by modulus.
    std::size_t pivotRow = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > best) {
        best = mag;
        pivotRow = r;
      }
    }
    if (best < pivotTolerance) {
      throw ConvergenceError(
          "ComplexLu: singular matrix at column " + std::to_string(k),
          static_cast<int>(k));
    }
    if (pivotRow != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(k, c), lu_(pivotRow, c));
      std::swap(pivots_[k], pivots_[pivotRow]);
    }

    const Complex pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == Complex{}) continue;
      for (std::size_t c = k + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

ComplexVector ComplexLu::solve(const ComplexVector& b) const {
  const std::size_t n = lu_.rows();
  require(b.size() == n, "ComplexLu::solve: size mismatch");

  // Apply row permutation, then forward/back substitution.
  ComplexVector x(n);
  for (std::size_t r = 0; r < n; ++r) x[r] = b[pivots_[r]];

  for (std::size_t r = 1; r < n; ++r) {
    Complex acc = x[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    Complex acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
  return x;
}

ComplexVector complexLuSolve(const ComplexMatrix& a, const ComplexVector& b) {
  return ComplexLu(a).solve(b);
}

}  // namespace vsstat::linalg
