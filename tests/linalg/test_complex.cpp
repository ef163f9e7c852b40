// Complex dense LU: exact small systems, pivoting, failure modes, and
// consistency with the real solver on promoted real systems.
#include <gtest/gtest.h>

#include <complex>
#include <utility>
#include <vector>

#include "linalg/complex.hpp"
#include "linalg/dense_pivot_lu.hpp"
#include "linalg/sparse.hpp"
#include "util/error.hpp"

namespace vsstat::linalg {
namespace {

using std::complex_literals::operator""i;

TEST(ComplexMatrix, ConstructionAndIndexing) {
  ComplexMatrix m(2, 3, Complex(1.0, -2.0));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), Complex(1.0, -2.0));
  m(0, 0) = 3.0 + 4.0i;
  EXPECT_EQ(m(0, 0), Complex(3.0, 4.0));
}

TEST(ComplexMatrix, MatrixVectorProduct) {
  ComplexMatrix a(2, 2);
  a(0, 0) = 1.0 + 1.0i;
  a(0, 1) = 2.0;
  a(1, 0) = 0.0;
  a(1, 1) = -1.0i;
  const ComplexVector x{1.0 + 0.0i, 1.0i};
  const ComplexVector y = a * x;
  EXPECT_NEAR(std::abs(y[0] - Complex(1.0, 3.0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(y[1] - Complex(1.0, 0.0)), 0.0, 1e-14);
}

TEST(ComplexLu, SolvesKnownTwoByTwo) {
  // (1+j) x + 2 y = 3 + j ;  x - j y = 1  has solution x = 1, y = (1+j)/... —
  // instead verify by construction: pick x, form b = A x, solve back.
  ComplexMatrix a(2, 2);
  a(0, 0) = 1.0 + 1.0i;
  a(0, 1) = 2.0;
  a(1, 0) = 1.0;
  a(1, 1) = -1.0i;
  const ComplexVector xTrue{0.5 - 0.25i, -1.0 + 2.0i};
  const ComplexVector b = a * xTrue;
  const ComplexVector x = ComplexLu(a).solve(b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(std::abs(x[0] - xTrue[0]), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(x[1] - xTrue[1]), 0.0, 1e-13);
}

TEST(ComplexLu, RequiresRowPivoting) {
  // Zero on the leading diagonal forces a swap; without pivoting this
  // factorization would divide by zero.
  ComplexMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0i;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;
  const ComplexVector xTrue{1.0 + 1.0i, -2.0i};
  const ComplexVector x = ComplexLu(a).solve(a * xTrue);
  EXPECT_NEAR(std::abs(x[0] - xTrue[0]), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(x[1] - xTrue[1]), 0.0, 1e-13);
}

TEST(ComplexLu, LargerSystemRoundTrips) {
  // Deterministic pseudo-random 8x8 system; diagonally dominated so it is
  // well conditioned.
  const std::size_t n = 8;
  ComplexMatrix a(n, n);
  double seed = 0.37;
  const auto next = [&seed] {
    seed = std::fmod(seed * 997.0 + 0.123, 1.0);
    return seed - 0.5;
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = Complex(next(), next());
    a(r, r) += Complex(4.0, 4.0);
  }
  ComplexVector xTrue(n);
  for (std::size_t i = 0; i < n; ++i)
    xTrue[i] = Complex(next() * 3.0, next() * 3.0);

  const ComplexVector x = ComplexLu(a).solve(a * xTrue);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x[i] - xTrue[i]), 0.0, 1e-11) << "index " << i;
}

TEST(ComplexLu, MatchesRealLuOnRealSystem) {
  Matrix a{{4.0, 1.0, 0.0}, {1.0, 3.0, -1.0}, {0.0, -1.0, 2.0}};
  const Vector b{1.0, 2.0, 3.0};
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (a(r, c) != 0.0) coords.emplace_back(r, c);
  const SparsePattern pattern(a.rows(), coords);
  SparseMatrix m(pattern);
  for (const auto& [r, c] : coords) m.addAt(pattern.slot(r, c), a(r, c));
  DensePivotLu real;
  real.refactor(m);
  const Vector xReal = real.solve(b);

  ComplexMatrix ac(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) ac(r, c) = a(r, c);
  ComplexVector bc(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) bc[i] = b[i];
  const ComplexVector xc = ComplexLu(ac).solve(bc);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(xc[i].real(), xReal[i], 1e-12);
    EXPECT_NEAR(xc[i].imag(), 0.0, 1e-12);
  }
}

TEST(ComplexLu, ThrowsOnSingularMatrix) {
  ComplexMatrix a(2, 2);
  a(0, 0) = 1.0 + 1.0i;
  a(0, 1) = 2.0 + 2.0i;
  a(1, 0) = 0.5 + 0.5i;
  a(1, 1) = 1.0 + 1.0i;  // row 1 = row 0 / 2: rank deficient
  EXPECT_THROW(ComplexLu{a}, ConvergenceError);
}

TEST(ComplexLu, ThrowsOnNonSquare) {
  ComplexMatrix a(2, 3);
  EXPECT_THROW(ComplexLu{a}, InvalidArgumentError);
}

TEST(ComplexLu, SolveRejectsWrongSize) {
  ComplexMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  const ComplexLu lu(a);
  EXPECT_THROW((void)lu.solve(ComplexVector(3)), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::linalg
