// Graph-sparse LU for the Newton/MNA hot path.
//
// KLU-style "order once, factor sparse, refactor numeric" pipeline:
//
//   1. ordering   -- an approximate-minimum-degree column order
//                    (linalg/ordering.hpp, near-linear in the pattern
//                    nonzeros) is computed once per captured MNA pattern and
//                    cached; it is a pure function of the pattern, so it
//                    never perturbs any bit-identity contract.
//   2. symbolic   -- the first numeric factorization is a Gilbert-Peierls
//                    left-looking sweep: per column, a DFS reach over the
//                    graph of L materializes exactly the fill-in pattern,
//                    and row partial pivoting picks PAQ = LU.  The resulting
//                    L and U are stored compressed (CSC), O(nnz) memory.
//   3. refactor   -- later factorizations of the *same* pattern (Newton
//                    iterations, transient steps, Monte Carlo samples of one
//                    topology) replay the numeric sweep over the fixed
//                    structure: no pivot search, no fill analysis, no heap
//                    allocation, O(nnz(L+U)) work.
//   4. solve      -- sparse forward/backward triangular substitution,
//                    O(nnz(L+U)) work per right-hand side.
//
// A pivot falling below tolerance during a refactor transparently falls back
// to the full re-pivoting path, exactly as the dense-pivot predecessor did
// (that implementation survives as linalg/dense_pivot_lu.hpp, the measured
// baseline for the `speedup_vs_dense_lu` bench rows).  The pivot settings
// are constants, not knobs: a pivot below kPivotTolerance (1e-14,
// linalg/matrix.hpp) is singular, and the reuse monitor's growth ceiling
// is 1e8.
//
// Two session-level pivot policies (SolverMode) build on this:
//
//   * fresh      -- the caller reset()s before every solve, so each solve
//                   re-derives its pivot order from its own first iterate.
//                   This is what makes a persistent workspace bit-identical
//                   to a freshly constructed one.  (The fill-reducing column
//                   order is exempt from reset: it depends only on the
//                   pattern, so reusing it is invisible to the numerics.)
//   * reusePivot -- the caller snapshots one canonical pivot order + factor
//                   structure (snapshotPivotOrder) and restores it at every
//                   solve boundary (restorePivotSnapshot) instead of
//                   resetting.  refactorReusingPivots() then skips the pivot
//                   search and symbolic pass entirely, monitored by a cheap
//                   element-growth / zero-pivot check that falls back to a
//                   full re-pivot on breakdown.  Results stay deterministic
//                   (each solve depends only on the canonical order and its
//                   own inputs, never on which solve ran before) and correct
//                   (the Newton convergence test still bounds the residual);
//                   only the Newton trajectory differs from fresh mode --
//                   statistically equivalent, tolerance-tested at the
//                   campaign level.
#ifndef VSSTAT_LINALG_SPARSE_LU_HPP
#define VSSTAT_LINALG_SPARSE_LU_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace vsstat::linalg {

/// Session pivot policy (see file comment).  Lives here -- next to the
/// factorization that implements it -- so every layer from spice sessions
/// to campaign runners can name it without new dependencies.
enum class SolverMode { fresh, reusePivot };

[[nodiscard]] inline const char* toString(SolverMode m) noexcept {
  return m == SolverMode::fresh ? "fresh" : "reuse-pivot";
}

class SparseLu {
 public:
  SparseLu() = default;

  /// Factors the values of `m` (laid out on its pattern).  The first call --
  /// or a pattern change, or a pivot breakdown -- runs the full ordering +
  /// symbolic + partial-pivot path; steady-state calls are allocation-free.
  /// Throws ConvergenceError when the matrix is numerically singular.
  /// In SolverMode::reusePivot (setSolverMode) this forwards to
  /// refactorReusingPivots(), so generic drivers pick up the session's
  /// pivot policy without mode checks at every call site.
  void refactor(const SparseMatrix& m);

  /// The pivot-reuse path: factors `m` on the previously derived pivot
  /// order and factor structure, skipping the pivot search and the symbolic
  /// pass.  A cheap monitor guards the reuse: if any reused pivot falls
  /// below kPivotTolerance or the factor's element growth
  /// max|LU| / max|A| exceeds 1e8 (partial pivoting keeps it near 1 on
  /// these MNA systems, so only genuinely degenerate reuse trips it), the
  /// stale order is abandoned and a full re-pivot runs instead (counted by
  /// pivotFallbackCount).  With no analyzed pattern (or a different one)
  /// it degrades to the full path.
  void refactorReusingPivots(const SparseMatrix& m);

  /// Forgets the analyzed pivot order and factor structure so the next
  /// refactor() runs the full symbolic + partial-pivot path again.  All
  /// buffers (and the pattern-derived column ordering) are retained, so a
  /// reset + refactor cycle on an unchanged pattern performs no steady-state
  /// heap allocations.  Fresh-mode simulation sessions call this at the
  /// start of every solve so a persistent workspace reproduces the numerics
  /// of a freshly-constructed one bit-for-bit (the row pivot order is
  /// re-derived from the solve's own first iterate instead of whatever
  /// sample last touched the factorization).
  void reset() noexcept { pattern_ = nullptr; }

  // --- pivot snapshot (SolverMode::reusePivot sessions) ----------------------
  /// Captures the current pivot order + factor structure as the canonical
  /// reuse structure.  Sessions prime it once, from a sample-independent
  /// state (the as-built fixture), which is what keeps reuse-mode campaign
  /// results independent of which worker session served which sample.
  /// Requires an analyzed factorization (refactor() succeeded).
  void snapshotPivotOrder();

  /// Restores the snapshot at a solve boundary: the next
  /// refactorReusingPivots() runs on the canonical order regardless of any
  /// breakdown re-pivot a previous solve performed.  No-op (beyond pointer
  /// fixup) when the structure never diverged; without a snapshot it
  /// behaves like reset(), i.e. the solve falls back to fresh pivoting.
  void restorePivotSnapshot() noexcept;

  [[nodiscard]] bool hasPivotSnapshot() const noexcept {
    return snapshotValid_;
  }

  /// Solver-session pivot policy; refactor() dispatches on it.  Purely a
  /// convenience for drivers that share one call site between modes --
  /// the explicit entry points above are mode-independent.
  void setSolverMode(SolverMode m) noexcept { mode_ = m; }
  [[nodiscard]] SolverMode solverMode() const noexcept { return mode_; }

  /// Solves A x = b in place; allocation-free, O(nnz(L+U)).  `x` has
  /// size() entries.
  void solveInPlace(std::span<double> x) const;
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] double determinant() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  // --- telemetry (perf tests / benches / session health) ---------------------
  /// Full symbolic+pivot factorizations performed so far.
  [[nodiscard]] std::uint64_t fullFactorCount() const noexcept {
    return fullFactors_;
  }
  /// Structure-reusing fast refactorizations performed so far.
  [[nodiscard]] std::uint64_t fastRefactorCount() const noexcept {
    return fastRefactors_;
  }
  /// Reuse-monitor breakdowns: refactorReusingPivots() calls that abandoned
  /// the reused order (zero pivot or growth) and re-pivoted from scratch.
  [[nodiscard]] std::uint64_t pivotFallbackCount() const noexcept {
    return pivotFallbacks_;
  }
  /// Structural nonzeros of the assembled pattern (A), from the last full
  /// factorization.
  [[nodiscard]] std::size_t patternNonZeroCount() const noexcept {
    return patternNnz_;
  }
  /// Structural nonzeros of L+U (pattern nonzeros + fill-in).
  [[nodiscard]] std::size_t factorNonZeroCount() const noexcept {
    return lRowIdx_.size() + uRowIdx_.size() + n_;
  }
  /// nnz(L+U) / nnz(A): 1.0 means zero fill-in, near-linear memory means
  /// this stays O(1) as the circuit grows.
  [[nodiscard]] double fillRatio() const noexcept {
    return patternNnz_ == 0 ? 0.0
                            : static_cast<double>(factorNonZeroCount()) /
                                  static_cast<double>(patternNnz_);
  }
  /// Cumulative wall time spent computing fill-reducing orderings (runs
  /// once per distinct pattern) and full factorizations.  The two are
  /// disjoint: a full factorization's clock starts after its ordering.
  [[nodiscard]] std::uint64_t orderingMicros() const noexcept {
    return orderingMicros_;
  }
  [[nodiscard]] std::uint64_t fullFactorMicros() const noexcept {
    return fullFactorMicros_;
  }
  /// Resident bytes of the factor proper (index + value arrays) -- the
  /// near-linear-memory claim the grid ladder checks.
  [[nodiscard]] std::size_t factorMemoryBytes() const noexcept {
    return (lRowIdx_.size() + uRowIdx_.size()) *
               (sizeof(std::int32_t) + sizeof(double)) +
           uDiag_.size() * sizeof(double) +
           (lColStart_.size() + uColStart_.size()) * sizeof(std::size_t);
  }

 private:
  void ensureOrdering(const SparsePattern& pattern);
  void fullFactor(const SparseMatrix& m);
  /// Replays the numeric sweep over the analyzed structure; false on a
  /// pivot below tolerance or, when `monitorGrowth`, on element growth
  /// past the ceiling.
  [[nodiscard]] bool fastRefactor(const SparseMatrix& m,
                                  bool monitorGrowth) noexcept;

  std::size_t n_ = 0;
  const SparsePattern* pattern_ = nullptr;  ///< identity of analyzed pattern

  // --- fill-reducing ordering cache (pure function of the pattern) ----------
  // Survives reset(): reusing it is invisible to the numerics, and it is the
  // one analysis whose cost should not be paid per fresh-mode solve.
  const SparsePattern* orderPattern_ = nullptr;
  std::size_t orderN_ = 0;
  std::size_t orderNnz_ = 0;
  std::vector<std::size_t> colPerm_;  ///< pivotal column k <- original column
  int colSign_ = 1;
  // Column-major access of the pattern slots (CSC transpose of the CSR
  // pattern): entries of original column c are [aColStart_[c], aColStart_[c+1])
  // with original row aRowIdx_[p] living in value slot aSlotIdx_[p].
  std::vector<std::size_t> aColStart_;
  std::vector<std::size_t> aRowIdx_;
  std::vector<std::size_t> aSlotIdx_;

  // --- factor: PAQ = LU, compressed sparse columns over pivotal indices -----
  std::vector<std::size_t> rowPerm_;   ///< pivotal row k <- original row
  std::vector<std::int32_t> permInv_;  ///< original row -> pivotal row
  int permSign_ = 1;
  // L is strictly lower with implicit unit diagonal; U is strictly upper
  // with the diagonal split into uDiag_.  U's columns are sorted ascending,
  // which is the dependency order the numeric refactor replays.
  std::vector<std::size_t> lColStart_;
  std::vector<std::int32_t> lRowIdx_;
  std::vector<double> lValues_;
  std::vector<std::size_t> uColStart_;
  std::vector<std::int32_t> uRowIdx_;
  std::vector<double> uValues_;
  std::vector<double> uDiag_;

  // --- O(n) work arrays ------------------------------------------------------
  // x_ and visited_ are all-zero between factorizations (every path,
  // including breakdown and throw paths, re-zeroes what it touched), which
  // is what makes the steady-state refactor O(nnz) instead of O(n).
  std::vector<double> x_;
  std::vector<char> visited_;
  std::vector<std::size_t> xi_;        ///< topological reach (symbolic DFS)
  std::vector<std::size_t> dfsStack_;
  std::vector<std::size_t> dfsPos_;
  mutable Vector work_;  ///< permuted rhs scratch for solveInPlace

  // Canonical structure snapshot (reuse-pivot sessions).  Restoring swaps
  // the saved copies back only when a breakdown re-pivot diverged the live
  // structure, so the per-solve restore is O(1) in steady state.
  struct PivotSnapshot {
    const SparsePattern* pattern = nullptr;
    std::size_t n = 0;
    std::size_t patternNnz = 0;
    std::vector<std::size_t> rowPerm;
    std::vector<std::int32_t> permInv;
    int permSign = 1;
    std::vector<std::size_t> lColStart, uColStart;
    std::vector<std::int32_t> lRowIdx, uRowIdx;
    // Ordering state, so a restore is self-contained even if another
    // pattern's factorization replaced the cached ordering in between.
    std::vector<std::size_t> colPerm;
    int colSign = 1;
    std::vector<std::size_t> aColStart, aRowIdx, aSlotIdx;
  };
  PivotSnapshot snapshot_;
  bool snapshotValid_ = false;
  bool divergedFromSnapshot_ = false;

  SolverMode mode_ = SolverMode::fresh;

  std::uint64_t fullFactors_ = 0;
  std::uint64_t fastRefactors_ = 0;
  std::uint64_t pivotFallbacks_ = 0;
  std::size_t patternNnz_ = 0;
  std::uint64_t orderingMicros_ = 0;
  std::uint64_t fullFactorMicros_ = 0;
};

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_SPARSE_LU_HPP
