// The pre-sparse factorization: the one dense LU in the tree, retained as
// the reference and the measured baseline.
//
// This is the dense-pivot, dense-scratch LU that SparseLu replaced: a fresh
// factor runs an O(n^3) dense partial-pivot sweep plus an O(n^3) boolean
// symbolic elimination, and every solve carries O(n^2) scratch.  It stays in
// the tree for two jobs only:
//
//   * the `speedup_vs_dense_lu` bench rows -- the grid-ladder campaign gates
//     the sparse factorization against this implementation at every rung, so
//     the >10x fresh-factor win is a number CI keeps honest rather than a
//     claim in a doc;
//   * equivalence tests -- sparse and dense factors of the same values must
//     agree to residual <= 1e-12 on every fixture rung, determinants match
//     on random systems, and the complex LU reproduces it on real systems.
//
// Nothing on the simulation path links against this class.
#ifndef VSSTAT_LINALG_DENSE_PIVOT_LU_HPP
#define VSSTAT_LINALG_DENSE_PIVOT_LU_HPP

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace vsstat::linalg {

class DensePivotLu {
 public:
  DensePivotLu() = default;

  /// Factors the values of `m`.  First call (or pattern change) runs the
  /// dense analyze + partial-pivot path; later calls on the same pattern
  /// reuse the recorded pivot order and fill structure.  Throws
  /// ConvergenceError when the matrix is numerically singular.
  void refactor(const SparseMatrix& m);

  /// Forgets the analyzed pattern so the next refactor() re-pivots from
  /// scratch -- the "fresh factor" the bench baseline times.
  void reset() noexcept { pattern_ = nullptr; }

  /// Solves A x = b in place.
  void solveInPlace(Vector& x) const;
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] double determinant() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] std::uint64_t fullFactorCount() const noexcept {
    return fullFactors_;
  }
  [[nodiscard]] std::uint64_t fastRefactorCount() const noexcept {
    return fastRefactors_;
  }

 private:
  void fullFactor(const SparseMatrix& m);
  [[nodiscard]] bool fastRefactor(const SparseMatrix& m) noexcept;
  void buildSymbolic(const SparsePattern& pattern);

  std::size_t n_ = 0;
  const SparsePattern* pattern_ = nullptr;
  Matrix scratch_;  ///< permuted LU working storage, O(n^2)
  std::vector<std::size_t> rowPerm_;
  std::vector<std::size_t> permInv_;
  int permSign_ = 1;

  // Structural elimination lists over the permuted matrix (flattened).
  std::vector<std::size_t> lStart_, lRows_;
  std::vector<std::size_t> uStart_, uCols_;
  std::vector<std::size_t> uColStart_, uColRows_;
  std::vector<std::size_t> zeroList_;   ///< flattened i*n+j of all L+U slots
  std::vector<char> symbolicScratch_;   ///< O(n^2) fill bitmap

  mutable Vector work_;

  std::uint64_t fullFactors_ = 0;
  std::uint64_t fastRefactors_ = 0;
};

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_DENSE_PIVOT_LU_HPP
