// Approximate-minimum-degree ordering (linalg::minDegreeOrder): structural
// contracts on hand-built patterns and on the power-grid mesh ladder.
//
//   * the order is a permutation of 0..n-1 and the same on every call (it
//     is a pure function of the pattern);
//   * a star whose hub is denser than the dense-row threshold orders the
//     hub last, so its arrow matrix factors with no fill at all;
//   * fill on the IR-drop meshes stays within 5% of what the explicit-
//     graph minimum degree it replaced admitted (4.73 at 32x32, 6.78 at
//     64x64).
#include "linalg/ordering.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "linalg/sparse_lu.hpp"
#include "models/vs_model.hpp"
#include "spice/assembler.hpp"

namespace vsstat::linalg {
namespace {

using Coords = std::vector<std::pair<std::size_t, std::size_t>>;

/// Checks that the order of `pattern` is a valid permutation, that a second
/// call returns the identical order, and that the sign is its parity.
void expectValidRepeatableOrder(const SparsePattern& pattern,
                                const char* what) {
  const FillOrder order = minDegreeOrder(pattern);
  ASSERT_EQ(order.perm.size(), pattern.size()) << what;
  std::vector<char> seen(pattern.size(), 0);
  for (const std::size_t v : order.perm) {
    ASSERT_LT(v, pattern.size()) << what;
    EXPECT_FALSE(seen[v]) << what << ": " << v << " ordered twice";
    seen[v] = 1;
  }
  EXPECT_EQ(order.sign, permutationSign(order.perm)) << what;
  const FillOrder again = minDegreeOrder(pattern);
  EXPECT_EQ(again.perm, order.perm) << what;
  EXPECT_EQ(again.sign, order.sign) << what;
}

/// Diagonal plus both directions of every listed edge.
SparsePattern symmetricPattern(std::size_t n, const Coords& edges) {
  Coords coords;
  for (std::size_t i = 0; i < n; ++i) coords.emplace_back(i, i);
  for (const auto& [a, b] : edges) {
    coords.emplace_back(a, b);
    coords.emplace_back(b, a);
  }
  return SparsePattern(n, coords);
}

/// Star with vertex 0 as the hub, connected to every other vertex.
SparsePattern starPattern(std::size_t n) {
  Coords edges;
  for (std::size_t i = 1; i < n; ++i) edges.emplace_back(0, i);
  return symmetricPattern(n, edges);
}

/// MNA Jacobian of the edge x edge IR-drop mesh, assembled as the grid
/// ladder tests do (deterministic iterate, homotopy-level gmin).  The
/// assembler owns the pattern and the matrix.
struct MeshJacobian {
  explicit MeshJacobian(int edge)
      : provider(models::VsModel(models::defaultVsNmos()),
                 models::VsModel(models::defaultVsPmos())),
        bench(circuits::buildPowerGridIrDrop(provider, edge, edge, 0.9)),
        assembler(bench.circuit) {
    const std::size_t n = bench.circuit.unknownCount();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = 0.2 + 0.5 * static_cast<double>((i * 37u) % 101u) / 101.0;
    assembler.setGmin(1e-3);
    assembler.assemble(x);
  }
  circuits::NominalProvider provider;
  circuits::PowerGridBench bench;
  spice::detail::Assembler assembler;
};

TEST(Ordering, SmallAndDegeneratePatternsGiveValidRepeatableOrders) {
  expectValidRepeatableOrder(SparsePattern(1, Coords{{0, 0}}), "n = 1");
  expectValidRepeatableOrder(SparsePattern(1, Coords{}), "n = 1, empty");
  expectValidRepeatableOrder(symmetricPattern(2, Coords{{0, 1}}), "n = 2");
  expectValidRepeatableOrder(SparsePattern(2, Coords{{0, 1}}),
                             "n = 2, one-sided");

  Coords diagonal;
  for (std::size_t i = 0; i < 40; ++i) diagonal.emplace_back(i, i);
  expectValidRepeatableOrder(SparsePattern(40, diagonal), "diagonal only");

  // Two disconnected components: a 5-cycle and a 4-clique.
  expectValidRepeatableOrder(
      symmetricPattern(9, Coords{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                                 {5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 8},
                                 {7, 8}}),
      "two components");

  Coords path;
  for (std::size_t i = 0; i + 1 < 50; ++i) path.emplace_back(i, i + 1);
  expectValidRepeatableOrder(symmetricPattern(50, path), "path");
}

TEST(Ordering, MeshMnaPatternGivesValidRepeatableOrder) {
  const MeshJacobian mesh(32);
  expectValidRepeatableOrder(mesh.assembler.pattern(), "32x32 mesh");
}

TEST(Ordering, DenseHubIsOrderedLastAndItsArrowMatrixHasNoFill) {
  // 200 vertices: the dense threshold is max(16, 10 sqrt(200)) = 141, and
  // the hub's degree is 199.
  constexpr std::size_t kN = 200;
  const SparsePattern pattern = starPattern(kN);
  expectValidRepeatableOrder(pattern, "star");
  EXPECT_EQ(minDegreeOrder(pattern).perm.back(), 0u);

  // Diagonally dominant arrow matrix: with the hub last, every leaf
  // eliminates against its own diagonal only.
  SparseMatrix arrow(pattern);
  for (std::size_t i = 0; i < kN; ++i) {
    arrow.addAt(pattern.slot(i, i), i == 0 ? 2.0 * kN : 4.0);
    if (i != 0) {
      arrow.addAt(pattern.slot(0, i), -1.0);
      arrow.addAt(pattern.slot(i, 0), -1.0);
    }
  }
  SparseLu lu;
  lu.refactor(arrow);
  EXPECT_EQ(lu.fillRatio(), 1.0);
}

TEST(Ordering, MeshFillStaysWithinFivePercentOfTheExplicitGraphOrder) {
  // Fill the replaced explicit-graph minimum degree admitted on these
  // meshes; the approximate order may not be worse by more than 5%.
  const struct {
    int edge;
    double previousFill;
  } rungs[] = {{32, 4.73}, {64, 6.78}};
  for (const auto& rung : rungs) {
    const MeshJacobian mesh(rung.edge);
    SparseLu lu;
    lu.refactor(mesh.assembler.jacobian());
    EXPECT_LE(lu.fillRatio(), 1.05 * rung.previousFill) << rung.edge;
    EXPECT_GT(lu.fillRatio(), 1.0) << rung.edge;
  }
}

}  // namespace
}  // namespace vsstat::linalg
