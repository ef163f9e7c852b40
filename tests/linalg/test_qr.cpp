#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::linalg {
namespace {

TEST(Qr, SolvesSquareSystemExactly) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = QrFactorization(a).solveLeastSquares({3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Qr, OverdeterminedLineFit) {
  // Fit y = a + b t through 4 points of the exact line y = 1 + 2t.
  Matrix a(4, 2);
  Vector b(4);
  for (int i = 0; i < 4; ++i) {
    const double t = i;
    a(i, 0) = 1.0;
    a(i, 1) = t;
    b[i] = 1.0 + 2.0 * t;
  }
  const Vector x = QrFactorization(a).solveLeastSquares(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Qr, MinimizesResidualForInconsistentSystem) {
  // Three equations x = 0, 1, 2: least-squares answer is the mean.
  Matrix a(3, 1, 1.0);
  const Vector b{0.0, 1.0, 2.0};
  const Vector x = QrFactorization(a).solveLeastSquares(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(norm2(sub(a * x, b)), std::sqrt(2.0), 1e-12);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(3, 2);
  for (int i = 0; i < 3; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // second column is a multiple of the first
  }
  EXPECT_THROW((void)QrFactorization(a).solveLeastSquares({1.0, 2.0, 3.0}),
               ConvergenceError);
}

TEST(Qr, RejectsUnderdetermined) {
  EXPECT_THROW(QrFactorization{Matrix(2, 3)}, InvalidArgumentError);
}

TEST(Qr, RandomOverdeterminedSystemsMatchNormalEquations) {
  stats::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 12;
    const std::size_t n = 4;
    Matrix a(m, n);
    Vector xTrue(n);
    for (std::size_t j = 0; j < n; ++j) xTrue[j] = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    const Vector b = a * xTrue;  // consistent -> exact recovery
    const Vector x = QrFactorization(a).solveLeastSquares(b);
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(x[j], xTrue[j], 1e-9);
  }
}

}  // namespace
}  // namespace vsstat::linalg
