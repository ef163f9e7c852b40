// Fill-reducing elimination orders for sparse MNA factorization.
//
// A good column order is what makes graph-sparse LU pay: eliminating
// low-degree nodes first keeps the fill-in (and therefore the numeric work
// of every later refactorization) near-linear in the pattern nonzeros on
// grid/mesh-shaped circuits, instead of the O(n^2) fill a natural order can
// produce.  The order is a pure function of the pattern -- no values are
// consulted -- so callers may compute it once per captured MNA pattern and
// reuse it for every sample of a campaign without touching any bit-identity
// contract.
#ifndef VSSTAT_LINALG_ORDERING_HPP
#define VSSTAT_LINALG_ORDERING_HPP

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace vsstat::linalg {

/// A fill-reducing elimination order.
struct FillOrder {
  /// perm[k] = original index eliminated at step k.
  std::vector<std::size_t> perm;
  /// Parity of the permutation (+1 or -1), for determinants.
  int sign = 1;
};

/// Approximate minimum degree ordering (Amestoy, Davis & Duff 1996) of the
/// symmetrized graph of A + A^T (self-loops ignored).  Eliminations are
/// tracked on a quotient graph -- each elimination becomes an element
/// instead of an explicit clique -- so the cost stays near-linear in the
/// pattern nonzeros, and each step pivots on a variable of minimum
/// *approximate* external degree, an upper bound on the true one.
/// Indistinguishable variables merge into supervariables and are
/// eliminated together; rows denser than max(16, 10 sqrt(n)) are set aside
/// and ordered last; the result is a postorder of the assembly tree.
///
/// Deterministic by construction: the order depends only on the pattern's
/// structure -- no values, addresses or unordered containers -- and ties
/// break by degree-list insertion order, itself a function of the pattern.
///
/// Row pivoting composes freely with this column order: the factorization
/// pivots PAQ = LU with Q from here and P chosen numerically per column.
[[nodiscard]] FillOrder minDegreeOrder(const SparsePattern& pattern);

/// Parity (+1 / -1) of a permutation given as perm[k] = original index.
[[nodiscard]] int permutationSign(const std::vector<std::size_t>& perm);

}  // namespace vsstat::linalg

#endif  // VSSTAT_LINALG_ORDERING_HPP
