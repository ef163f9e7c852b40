#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/dense_pivot_lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::linalg {
namespace {

using Coords = std::vector<std::pair<std::size_t, std::size_t>>;

TEST(SparsePattern, AssignsOneSlotPerDistinctCoordinate) {
  const SparsePattern p(3, Coords{{0, 0}, {1, 1}, {0, 0}, {2, 0}, {1, 1}});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.nonZeroCount(), 3u);
  EXPECT_GE(p.slot(0, 0), 0);
  EXPECT_GE(p.slot(1, 1), 0);
  EXPECT_GE(p.slot(2, 0), 0);
  EXPECT_EQ(p.slot(0, 1), -1);
  EXPECT_EQ(p.slot(2, 2), -1);
}

TEST(SparsePattern, SlotsAreCsrOrdered) {
  const SparsePattern p(2, Coords{{1, 0}, {0, 1}, {0, 0}});
  // Row 0 slots come before row 1 slots, columns ascending within a row.
  EXPECT_EQ(p.slot(0, 0), 0);
  EXPECT_EQ(p.slot(0, 1), 1);
  EXPECT_EQ(p.slot(1, 0), 2);
  EXPECT_EQ(p.rowStart(), (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(p.colIndex(), (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(p.rowIndex(), (std::vector<std::size_t>{0, 0, 1}));
}

TEST(SparsePattern, RejectsOutOfRangeCoordinates) {
  EXPECT_THROW(SparsePattern(2, Coords{{2, 0}}), InvalidArgumentError);
  EXPECT_THROW(SparsePattern(0, Coords{}), InvalidArgumentError);
}

TEST(SparseMatrix, AccumulatesAndClears) {
  const SparsePattern p(2, Coords{{0, 0}, {1, 1}});
  SparseMatrix m(p);
  m.addAt(p.slot(0, 0), 2.0);
  m.addAt(p.slot(0, 0), 0.5);
  m.addAt(p.slot(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);  // structural zero reads as 0
  m.clear();
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(SparseMatrix, ScattersToDense) {
  const SparsePattern p(2, Coords{{0, 1}, {1, 0}});
  SparseMatrix m(p);
  m.addAt(p.slot(0, 1), 3.0);
  m.addAt(p.slot(1, 0), 4.0);
  Matrix dense;
  m.scatterTo(dense);
  EXPECT_EQ(dense.rows(), 2u);
  EXPECT_DOUBLE_EQ(dense(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(dense(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(dense(0, 0), 0.0);
}

// --- SparseLu ---------------------------------------------------------------

/// Fills a SparseMatrix from a dense reference (pattern = nonzeros of d).
SparseMatrix fromDense(const SparsePattern& p, const Matrix& d) {
  SparseMatrix m(p);
  for (std::size_t r = 0; r < d.rows(); ++r)
    for (std::size_t c = 0; c < d.cols(); ++c)
      if (p.slot(r, c) >= 0) m.addAt(p.slot(r, c), d(r, c));
  return m;
}

TEST(SparseLu, SolvesSmallSystem) {
  const SparsePattern p(2, Coords{{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const SparseMatrix m = fromDense(p, Matrix{{2.0, 1.0}, {1.0, 3.0}});
  SparseLu lu;
  lu.refactor(m);
  const Vector x = lu.solve({3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SparseLu, HandlesZeroDiagonalViaPivoting) {
  // MNA voltage-source rows have structurally zero diagonals.
  const SparsePattern p(2, Coords{{0, 1}, {1, 0}});
  const SparseMatrix m = fromDense(p, Matrix{{0.0, 1.0}, {1.0, 0.0}});
  SparseLu lu;
  lu.refactor(m);
  const Vector x = lu.solve({2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(SparseLu, DetectsSingularMatrix) {
  const SparsePattern p(2, Coords{{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const SparseMatrix m = fromDense(p, Matrix{{1.0, 2.0}, {2.0, 4.0}});
  SparseLu lu;
  EXPECT_THROW(lu.refactor(m), ConvergenceError);
}

TEST(SparseLu, FastRefactorReusesStructure) {
  stats::Rng rng(3);
  const std::size_t n = 8;
  // Sparse diagonally-dominant pattern: diagonal + a band + a few extras.
  Coords coords;
  for (std::size_t i = 0; i < n; ++i) {
    coords.emplace_back(i, i);
    if (i + 1 < n) {
      coords.emplace_back(i, i + 1);
      coords.emplace_back(i + 1, i);
    }
  }
  coords.emplace_back(0, n - 1);
  const SparsePattern p(n, coords);

  SparseLu lu;
  for (int trial = 0; trial < 10; ++trial) {
    Matrix d(n, n);
    for (const auto& [r, c] : coords)
      d(r, c) = rng.uniform(-1.0, 1.0) + (r == c ? 4.0 : 0.0);
    const SparseMatrix m = fromDense(p, d);

    Vector xTrue(n);
    for (std::size_t i = 0; i < n; ++i) xTrue[i] = rng.uniform(-2.0, 2.0);
    const Vector b = d * xTrue;

    lu.refactor(m);
    Vector x = b;
    lu.solveInPlace(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
  }
  // One analyze+pivot pass, every later factorization reused the structure.
  EXPECT_EQ(lu.fullFactorCount(), 1u);
  EXPECT_EQ(lu.fastRefactorCount(), 9u);
  EXPECT_GE(lu.factorNonZeroCount(), p.nonZeroCount());
}

TEST(SparseLu, RepivotsWhenFastPathBreaksDown) {
  const SparsePattern p(2, Coords{{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  SparseLu lu;
  lu.refactor(fromDense(p, Matrix{{4.0, 1.0}, {1.0, 3.0}}));
  // Now make the (0,0) pivot exactly zero: the fast path must fall back to
  // a fresh partial-pivot factorization and still solve correctly.
  lu.refactor(fromDense(p, Matrix{{0.0, 1.0}, {1.0, 1.0}}));
  const Vector x = lu.solve({2.0, 5.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_EQ(lu.fullFactorCount(), 2u);
}

TEST(SparseLu, MatchesDenseLuOnRandomSystems) {
  stats::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.below(8);
    Coords coords;
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || rng.uniform(0.0, 1.0) < 0.4) {
          coords.emplace_back(i, j);
          d(i, j) = rng.uniform(-1.0, 1.0) + (i == j ? double(n) : 0.0);
        }
      }
    }
    const SparsePattern p(n, coords);
    const SparseMatrix m = fromDense(p, d);
    SparseLu lu;
    lu.refactor(m);

    Vector xTrue(n);
    for (std::size_t i = 0; i < n; ++i) xTrue[i] = rng.uniform(-2.0, 2.0);
    Vector x = d * xTrue;
    lu.solveInPlace(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);

    DensePivotLu dense;
    dense.refactor(m);
    EXPECT_NEAR(lu.determinant(), dense.determinant(),
                1e-9 * std::max(1.0, std::fabs(lu.determinant())));
  }
}

}  // namespace
}  // namespace vsstat::linalg
