// Seeded fuzzing of the fill-reducing ordering (linalg::minDegreeOrder).
// Every pattern the campaign server meets comes from a client's deck, so
// the ordering is an untrusted-input boundary too.  Over 20 000 random
// patterns -- n from 1 to 600, densities from 1% to 90%, one-sided and
// symmetric entries, duplicate coordinates, missing diagonals, and dense
// hub rows and columns -- each order must be a valid permutation that a
// second call repeats exactly and that ignores the diagonal, and SparseLu
// on a diagonally dominant matrix with that pattern (plus its diagonal)
// must solve to a backward-stable residual.  Fixed seed and budget; the
// ASan/UBSan job runs it with the rest of the suite.
#include "linalg/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "linalg/sparse_lu.hpp"

namespace vsstat::linalg {
namespace {

using Coords = std::vector<std::pair<std::size_t, std::size_t>>;

class PatternSource {
 public:
  explicit PatternSource(std::uint64_t seed) : rng_(seed) {}

  /// Dimension: mostly small, with a tail up to 600 unknowns.
  std::size_t dimension() {
    const std::size_t bucket = below(100);
    if (bucket < 85) return 1 + below(30);
    if (bucket < 99) return 31 + below(120);
    return 151 + below(450);
  }

  /// Off-diagonal coordinates of an n x n pattern (diagonal entries only
  /// where `someDiagonal` picks them), with duplicates and optional hubs.
  Coords offDiagonal(std::size_t n) {
    Coords coords;
    if (n < 2) return coords;
    // Density log-uniform in [1%, 90%], capped at a few entries per row
    // beyond 30 unknowns: random graphs fill in almost densely, and the
    // budget is 20 000 factorizations.
    const double density = 0.01 * std::pow(90.0, unit());
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    const double perRow = n > 150 ? 2.0 : 3.0;
    const double cap = n > 30 ? perRow * static_cast<double>(n) : pairs;
    const auto entries =
        static_cast<std::size_t>(std::min(density * pairs, cap));
    const std::size_t symmetry = below(3);  // 0 one-sided, 1 mixed, 2 both
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t r = below(n);
      std::size_t c = below(n - 1);
      if (c >= r) ++c;
      coords.emplace_back(r, c);
      if (symmetry == 2 || (symmetry == 1 && below(2) == 0))
        coords.emplace_back(c, r);
      if (below(8) == 0) coords.push_back(coords[below(coords.size())]);
    }
    // Dense hubs: a row, a column or both, touching 30-100% of the vertices
    // (100% often, so hubs cross the dense threshold at every n).
    if (below(4) == 0) {
      const std::size_t hubs = 1 + below(3);
      for (std::size_t h = 0; h < hubs; ++h) {
        const std::size_t hub = below(n);
        const std::size_t reach = below(2) == 0 ? 100 : 30 + below(71);
        const std::size_t side = below(3);  // 0 row, 1 column, 2 both
        for (std::size_t v = 0; v < n; ++v) {
          if (v == hub || below(100) >= reach) continue;
          if (side != 1) coords.emplace_back(hub, v);
          if (side != 0) coords.emplace_back(v, hub);
        }
      }
    }
    return coords;
  }

  /// Diagonal entries: all of them, or a random subset (maybe none).
  void someDiagonal(std::size_t n, Coords& coords) {
    const bool all = below(4) != 0;
    for (std::size_t i = 0; i < n; ++i)
      if (all || below(2) == 0) coords.emplace_back(i, i);
  }

  /// Uniform in [0, 1).
  double unit() {
    return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  std::mt19937_64 rng_;
};

/// Returns true when `order` is a permutation of 0..n-1.
bool isPermutation(const FillOrder& order, std::size_t n) {
  if (order.perm.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (const std::size_t v : order.perm) {
    if (v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

/// Row-diagonally-dominant values on `pattern` (whose diagonal is full):
/// off-diagonals uniform in [-1, 1), each diagonal 1 + its row's |sum|.
SparseMatrix dominantMatrix(const SparsePattern& pattern,
                            PatternSource& source) {
  SparseMatrix m(pattern);
  const auto& rowStart = pattern.rowStart();
  const auto& cols = pattern.colIndex();
  for (std::size_t r = 0; r < pattern.size(); ++r) {
    double offSum = 0.0;
    for (std::size_t s = rowStart[r]; s < rowStart[r + 1]; ++s) {
      if (cols[s] == r) continue;
      const double v = 2.0 * source.unit() - 1.0;
      m.setAt(static_cast<std::int32_t>(s), v);
      offSum += std::fabs(v);
    }
    m.setAt(pattern.slot(r, r), 1.0 + offSum);
  }
  return m;
}

/// ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double scaledResidual(const SparseMatrix& m, const Vector& x,
                      const Vector& b) {
  const SparsePattern& p = m.pattern();
  Vector r(b.size(), 0.0);
  std::vector<double> rowAbs(b.size(), 0.0);
  for (std::size_t s = 0; s < p.nonZeroCount(); ++s) {
    r[p.rowIndex()[s]] += m.values()[s] * x[p.colIndex()[s]];
    rowAbs[p.rowIndex()[s]] += std::fabs(m.values()[s]);
  }
  double res = 0.0;
  double normA = 0.0;
  double normX = 0.0;
  double normB = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    res = std::max(res, std::fabs(r[i] - b[i]));
    normA = std::max(normA, rowAbs[i]);
    normX = std::max(normX, std::fabs(x[i]));
    normB = std::max(normB, std::fabs(b[i]));
  }
  return res / (normA * normX + normB);
}

TEST(OrderingFuzz, RandomPatternsGiveValidOrdersAndSolvableFactors) {
  constexpr int kPatterns = 20000;
  PatternSource source(20261017);
  std::size_t largest = 0;
  int denser = 0;  // more than four entries per row on average
  for (int t = 0; t < kPatterns; ++t) {
    const std::size_t n = source.dimension();
    largest = std::max(largest, n);
    Coords coords = source.offDiagonal(n);
    Coords full = coords;
    source.someDiagonal(n, coords);
    const SparsePattern pattern(n, coords);
    if (pattern.nonZeroCount() > 4 * n) ++denser;

    const FillOrder order = minDegreeOrder(pattern);
    ASSERT_TRUE(isPermutation(order, n)) << "pattern " << t << ", n " << n;
    ASSERT_EQ(order.sign, permutationSign(order.perm)) << "pattern " << t;
    const FillOrder again = minDegreeOrder(pattern);
    ASSERT_EQ(again.perm, order.perm) << "pattern " << t;

    // The same off-diagonal structure with its full diagonal orders the
    // same way, and factors.
    for (std::size_t i = 0; i < n; ++i) full.emplace_back(i, i);
    const SparsePattern withDiagonal(n, full);
    ASSERT_EQ(minDegreeOrder(withDiagonal).perm, order.perm)
        << "pattern " << t;

    const SparseMatrix m = dominantMatrix(withDiagonal, source);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = 2.0 * source.unit() - 1.0;
    SparseLu lu;
    lu.refactor(m);
    const Vector x = lu.solve(b);
    ASSERT_LE(scaledResidual(m, x, b), 1e-12) << "pattern " << t;
  }
  // The budget reached the tail of the size distribution and the denser
  // and hub-carrying patterns.
  EXPECT_GT(largest, 550u);
  EXPECT_GT(denser, kPatterns / 10);
}

}  // namespace
}  // namespace vsstat::linalg
