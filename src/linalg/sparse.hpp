// Compressed-sparse-row pattern/value split for the MNA Newton hot path.
//
// The circuit engine solves the same topology thousands of times per Monte
// Carlo campaign (Newton iterations x transient steps x samples), so the
// sparsity structure of the Jacobian is captured exactly once per circuit
// (the "symbolic" phase) and every subsequent assembly writes straight into
// preallocated pattern slots.  Coordinate -> slot resolution is a binary
// search over the row's column indices: O(log nnz(row)) with nnz(row) in
// the single digits for MNA stamps, and -- unlike the dense n*n lookup
// table it replaced -- O(nnz) memory, so grid-scale patterns (64x64 mesh,
// ~4k unknowns) stay linear instead of costing ~128 MiB of table.
#ifndef VSSTAT_LINALG_SPARSE_HPP
#define VSSTAT_LINALG_SPARSE_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace vsstat::linalg {

/// Immutable CSR sparsity structure of a square matrix.
///
/// Built once from a coordinate list (duplicates collapse into one slot);
/// afterwards `slot(r, c)` resolves a coordinate to its value index with a
/// binary search over the row's sorted column indices.
class SparsePattern {
 public:
  SparsePattern() = default;

  /// Builds the pattern for an n x n matrix from (row, col) coordinates.
  /// Coordinates may repeat; each distinct position gets exactly one slot.
  SparsePattern(std::size_t n,
                const std::vector<std::pair<std::size_t, std::size_t>>& coords);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nonZeroCount() const noexcept {
    return colIndex_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// Slot index of (r, c), or -1 when the position is structurally zero.
  [[nodiscard]] std::int32_t slot(std::size_t r, std::size_t c) const noexcept {
    // Binary search over the row's ascending column indices.  Row fan-out on
    // MNA patterns is a handful of entries, so this is 2-3 probes.
    std::size_t lo = rowStart_[r];
    std::size_t hi = rowStart_[r + 1];
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (colIndex_[mid] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < rowStart_[r + 1] && colIndex_[lo] == c)
      return static_cast<std::int32_t>(lo);
    return -1;
  }

  /// CSR row boundaries: slots of row r are [rowStart()[r], rowStart()[r+1]).
  [[nodiscard]] const std::vector<std::size_t>& rowStart() const noexcept {
    return rowStart_;
  }
  /// Column of each slot (CSR order: by row, then by column).
  [[nodiscard]] const std::vector<std::size_t>& colIndex() const noexcept {
    return colIndex_;
  }
  /// Row of each slot (redundant with rowStart, kept for O(1) scatter).
  [[nodiscard]] const std::vector<std::size_t>& rowIndex() const noexcept {
    return rowIndex_;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> rowStart_;
  std::vector<std::size_t> colIndex_;
  std::vector<std::size_t> rowIndex_;
};

/// Values laid out on a SparsePattern.  The pattern is referenced, not
/// owned: it must outlive the matrix (the Assembler owns both).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(const SparsePattern& pattern)
      : pattern_(&pattern), values_(pattern.nonZeroCount(), 0.0) {}

  [[nodiscard]] const SparsePattern& pattern() const noexcept {
    return *pattern_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Zeroes all values; O(nnz), never touches structural zeros.
  void clear() noexcept {
    std::fill(values_.begin(), values_.end(), 0.0);
  }

  /// Accumulates into a known slot (from SparsePattern::slot).
  void addAt(std::int32_t slot, double v) noexcept {
    values_[static_cast<std::size_t>(slot)] += v;
  }

  /// Overwrites a known slot.  Used by the fault-injection seam to force
  /// degenerate values (e.g. zeroing a row) after normal assembly.
  void setAt(std::int32_t slot, double v) noexcept {
    values_[static_cast<std::size_t>(slot)] = v;
  }

  /// Value at (r, c); structural zeros read as 0.0.
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    const std::int32_t s = pattern_->slot(r, c);
    return s < 0 ? 0.0 : values_[static_cast<std::size_t>(s)];
  }

  /// Writes this matrix into `dense` (resized/zeroed as needed).
  void scatterTo(Matrix& dense) const;

 private:
  const SparsePattern* pattern_ = nullptr;
  std::vector<double> values_;
};

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_SPARSE_HPP
