#include "linalg/dense_pivot_lu.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vsstat::linalg {

void DensePivotLu::refactor(const SparseMatrix& m) {
  const SparsePattern& pattern = m.pattern();
  require(!pattern.empty(), "DensePivotLu: empty pattern");
  if (pattern_ != &pattern || n_ != pattern.size()) {
    fullFactor(m);
    return;
  }
  if (!fastRefactor(m)) {
    fullFactor(m);
  }
}

void DensePivotLu::fullFactor(const SparseMatrix& m) {
  const SparsePattern& pattern = m.pattern();
  const std::size_t n = pattern.size();
  n_ = n;
  pattern_ = nullptr;

  if (scratch_.rows() != n || scratch_.cols() != n) scratch_ = Matrix(n, n);
  scratch_.fill(0.0);
  rowPerm_.resize(n);
  permInv_.resize(n);
  work_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rowPerm_[i] = i;
  permSign_ = 1;

  const auto& rows = pattern.rowIndex();
  const auto& cols = pattern.colIndex();
  const auto& values = m.values();
  for (std::size_t s = 0; s < values.size(); ++s)
    scratch_(rows[s], cols[s]) = values[s];

  double* a = scratch_.data();
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
    if (!(best >= kPivotTolerance)) {
      throw SingularMatrixError(
          "DensePivotLu: matrix is singular to working precision",
          static_cast<int>(k));
    }
    if (p != k) {
      permSign_ = -permSign_;
      std::swap(rowPerm_[k], rowPerm_[p]);
      for (std::size_t j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
    }
    const double diag = a[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = a[i * n + k] / diag;
      a[i * n + k] = mult;
      if (mult == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j)
        a[i * n + j] -= mult * a[k * n + j];
    }
  }
  for (std::size_t k = 0; k < n; ++k) permInv_[rowPerm_[k]] = k;

  buildSymbolic(pattern);
  pattern_ = &pattern;
  ++fullFactors_;
}

void DensePivotLu::buildSymbolic(const SparsePattern& pattern) {
  const std::size_t n = n_;
  // Boolean elimination of the permuted pattern: a superset of the numeric
  // nonzeros for any values on this pattern under this row order.
  std::vector<char>& b = symbolicScratch_;
  b.assign(n * n, 0);
  const auto& rows = pattern.rowIndex();
  const auto& cols = pattern.colIndex();
  for (std::size_t s = 0; s < pattern.nonZeroCount(); ++s)
    b[permInv_[rows[s]] * n + cols[s]] = 1;

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!b[i * n + k]) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (b[k * n + j]) b[i * n + j] = 1;
      }
    }
  }

  lStart_.assign(n + 1, 0);
  uStart_.assign(n + 1, 0);
  uColStart_.assign(n + 1, 0);
  lRows_.clear();
  uCols_.clear();
  uColRows_.clear();
  zeroList_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    lStart_[k] = lRows_.size();
    for (std::size_t i = k + 1; i < n; ++i) {
      if (b[i * n + k]) lRows_.push_back(i);
    }
    uStart_[k] = uCols_.size();
    for (std::size_t j = k + 1; j < n; ++j) {
      if (b[k * n + j]) uCols_.push_back(j);
    }
    uColStart_[k] = uColRows_.size();
    for (std::size_t i = 0; i < k; ++i) {
      if (b[i * n + k]) uColRows_.push_back(i);
    }
  }
  lStart_[n] = lRows_.size();
  uStart_[n] = uCols_.size();
  uColStart_[n] = uColRows_.size();

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (b[i * n + j]) zeroList_.push_back(i * n + j);
    }
  }
}

bool DensePivotLu::fastRefactor(const SparseMatrix& m) noexcept {
  const std::size_t n = n_;
  double* a = scratch_.data();

  for (const std::size_t idx : zeroList_) a[idx] = 0.0;
  const auto& rows = pattern_->rowIndex();
  const auto& cols = pattern_->colIndex();
  const auto& values = m.values();
  for (std::size_t s = 0; s < values.size(); ++s)
    a[permInv_[rows[s]] * n + cols[s]] = values[s];

  for (std::size_t k = 0; k < n; ++k) {
    const double diag = a[k * n + k];
    if (!(std::fabs(diag) >= kPivotTolerance)) return false;
    const double* pivotRow = a + k * n;
    const std::size_t uBegin = uStart_[k];
    const std::size_t uEnd = uStart_[k + 1];
    for (std::size_t li = lStart_[k]; li < lStart_[k + 1]; ++li) {
      const std::size_t i = lRows_[li];
      const double mult = a[i * n + k] / diag;
      a[i * n + k] = mult;
      if (mult == 0.0) continue;
      double* row = a + i * n;
      for (std::size_t ui = uBegin; ui < uEnd; ++ui) {
        const std::size_t j = uCols_[ui];
        row[j] -= mult * pivotRow[j];
      }
    }
  }

  ++fastRefactors_;
  return true;
}

void DensePivotLu::solveInPlace(Vector& x) const {
  const std::size_t n = n_;
  require(pattern_ != nullptr, "DensePivotLu: solve before factorization");
  require(x.size() == n, "DensePivotLu: rhs size mismatch");
  const double* a = scratch_.data();

  for (std::size_t k = 0; k < n; ++k) work_[k] = x[rowPerm_[k]];

  for (std::size_t k = 0; k < n; ++k) {
    const double xk = work_[k];
    if (xk == 0.0) continue;
    for (std::size_t li = lStart_[k]; li < lStart_[k + 1]; ++li) {
      const std::size_t i = lRows_[li];
      work_[i] -= a[i * n + k] * xk;
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    const double xk = work_[k] / a[k * n + k];
    work_[k] = xk;
    if (xk == 0.0) continue;
    for (std::size_t ui = uColStart_[k]; ui < uColStart_[k + 1]; ++ui) {
      const std::size_t i = uColRows_[ui];
      work_[i] -= a[i * n + k] * xk;
    }
  }
  std::copy(work_.begin(), work_.end(), x.begin());
}

Vector DensePivotLu::solve(const Vector& b) const {
  Vector x = b;
  solveInPlace(x);
  return x;
}

double DensePivotLu::determinant() const noexcept {
  double d = permSign_;
  for (std::size_t k = 0; k < n_; ++k) d *= scratch_(k, k);
  return d;
}

}  // namespace vsstat::linalg
