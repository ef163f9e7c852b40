#include "linalg/sparse.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vsstat::linalg {

SparsePattern::SparsePattern(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& coords)
    : n_(n) {
  require(n > 0, "SparsePattern: dimension must be positive");

  // Sort one flat copy of the coordinates into CSR (row-major,
  // ascending-column) order and deduplicate, so a linear walk over the
  // value array is cache-friendly and slot() can binary-search.  O(nnz)
  // memory and O(1) allocations throughout -- construction never
  // materializes an n*n table (or n per-row buckets), so grid-scale
  // patterns stay near-linear and the rebuild-per-sample path stays cheap.
  std::vector<std::pair<std::size_t, std::size_t>> sorted(coords);
  for (const auto& [r, c] : sorted) {
    require(r < n && c < n, "SparsePattern: coordinate out of range");
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  rowStart_.assign(n + 1, 0);
  colIndex_.reserve(sorted.size());
  rowIndex_.reserve(sorted.size());
  std::size_t nextRow = 0;
  for (const auto& [r, c] : sorted) {
    while (nextRow <= r) rowStart_[nextRow++] = colIndex_.size();
    colIndex_.push_back(c);
    rowIndex_.push_back(r);
  }
  while (nextRow <= n) rowStart_[nextRow++] = colIndex_.size();
}

void SparseMatrix::scatterTo(Matrix& dense) const {
  const std::size_t n = pattern_->size();
  if (dense.rows() != n || dense.cols() != n) {
    dense = Matrix(n, n);
  } else {
    dense.fill(0.0);
  }
  const auto& rows = pattern_->rowIndex();
  const auto& cols = pattern_->colIndex();
  for (std::size_t s = 0; s < values_.size(); ++s) {
    dense(rows[s], cols[s]) = values_[s];
  }
}

}  // namespace vsstat::linalg
