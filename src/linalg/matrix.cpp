#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vsstat::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    require(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::selectColumns(const std::vector<std::size_t>& idx) const {
  Matrix s(rows_, idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) {
    require(idx[j] < cols_, "Matrix::selectColumns index out of range");
    for (std::size_t r = 0; r < rows_; ++r) s(r, j) = (*this)(r, idx[j]);
  }
  return s;
}

void Matrix::fill(double value) noexcept {
  for (auto& v : data_) v = value;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix -= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "Matrix * shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  require(a.cols() == x.size(), "Matrix * vector shape mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

double norm2(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double normInf(const Vector& v) noexcept {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

Vector sub(const Vector& a, const Vector& b) {
  require(a.size() == b.size(), "sub: size mismatch");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

}  // namespace vsstat::linalg
