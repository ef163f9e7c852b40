#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace vsstat::linalg {
namespace {

TEST(Matrix, ConstructsFromInitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RejectsRaggedInitializer) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgumentError);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), InvalidArgumentError);
  EXPECT_THROW((void)m.at(0, 2), InvalidArgumentError);
}

TEST(Matrix, TransposeRoundTrips) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  const Matrix back = t.transposed();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(back(r, c), m(r, c));
}

TEST(Matrix, MultiplicationMatchesHandComputation) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplicationShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgumentError);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, SelectColumnsExtractsInOrder) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix s = a.selectColumns({2, 0});
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 6.0);
}

TEST(VectorOps, NormsAndSub) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(normInf(Vector{-7.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(sub(Vector{1.0, 2.0}, Vector{0.5, 1.5})[0], 0.5);
}

TEST(VectorOps, SizeMismatchThrows) {
  EXPECT_THROW((void)sub(Vector{1.0}, Vector{1.0, 2.0}), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::linalg
