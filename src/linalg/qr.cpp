#include "linalg/qr.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace vsstat::linalg {

QrFactorization::QrFactorization(Matrix a) : qr_(std::move(a)) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  require(m >= n && n > 0, "QR: need m >= n >= 1");
  betas_.assign(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k.
    double normx = 0.0;
    for (std::size_t i = k; i < m; ++i) normx += qr_(i, k) * qr_(i, k);
    normx = std::sqrt(normx);
    if (normx == 0.0) continue;  // column already zero; flagged at solve time

    const double alpha = qr_(k, k) >= 0.0 ? -normx : normx;
    const double v0 = qr_(k, k) - alpha;
    qr_(k, k) = alpha;
    // Store v (scaled so v[k] = 1) below the diagonal.
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= v0;
    betas_[k] = -v0 / alpha;

    // Apply reflector to the remaining columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= betas_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

void QrFactorization::applyQt(Vector& v) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  for (std::size_t k = 0; k < n; ++k) {
    if (betas_[k] == 0.0) continue;
    double s = v[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * v[i];
    s *= betas_[k];
    v[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) v[i] -= s * qr_(i, k);
  }
}

Vector QrFactorization::solveLeastSquares(const Vector& b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  require(b.size() == m, "QR solve: rhs size mismatch");

  Vector y = b;
  applyQt(y);

  // Back substitution on R.
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    const double diag = qr_(ii, ii);
    if (std::fabs(diag) < 1e-13) {
      throw ConvergenceError("QR: rank-deficient least-squares system",
                             static_cast<int>(ii));
    }
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= qr_(ii, j) * x[j];
    x[ii] = s / diag;
  }
  return x;
}

}  // namespace vsstat::linalg
