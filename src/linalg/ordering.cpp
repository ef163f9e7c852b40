#include "linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace vsstat::linalg {

int permutationSign(const std::vector<std::size_t>& perm) {
  const std::size_t n = perm.size();
  std::vector<char> seen(n, 0);
  int sign = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i]) continue;
    std::size_t len = 0;
    std::size_t j = i;
    while (!seen[j]) {
      seen[j] = 1;
      j = perm[j];
      ++len;
    }
    if (len % 2 == 0) sign = -sign;
  }
  return sign;
}

namespace {

using Int = std::ptrdiff_t;

/// Tags an object as absorbed (or a tree edge) without losing its index:
/// flip(i) < 0 for every i >= 0, flip(flip(i)) == i, and flip(-1) == -1.
constexpr Int flip(Int i) noexcept { return -i - 2; }

/// Re-bases the w[] marks when `mark` has grown large, so that on return
/// w[e] < mark for every live element e (w == 0 keeps meaning "dead").
/// The threshold leaves room for mark + lemax + n without overflow.
Int clearMarks(Int mark, Int* w, Int n) noexcept {
  if (mark < 2 || mark > std::numeric_limits<Int>::max() / 2) {
    for (Int k = 0; k < n; ++k)
      if (w[k] != 0) w[k] = 1;
    mark = 2;
  }
  return mark;
}

/// Postorders the subtree rooted at j (children in list order) into
/// post[k..]; returns the next free position.  `stack` holds n + 1 entries.
Int postorderTree(Int j, Int k, Int* head, const Int* next, Int* post,
                  Int* stack) noexcept {
  Int top = 0;
  stack[0] = j;
  while (top >= 0) {
    const Int p = stack[top];
    const Int i = head[p];
    if (i == -1) {
      --top;
      post[k++] = p;
    } else {
      head[p] = next[i];
      stack[++top] = i;
    }
  }
  return k;
}

}  // namespace

// Approximate minimum degree (Amestoy, Davis & Duff 1996), following the
// structure of CSparse's cs_amd (Davis, "Direct Methods for Sparse Linear
// Systems", SIAM 2006, ch. 7).  Vocabulary: a *variable* is an uneliminated
// vertex (several indistinguishable ones merge into one supervariable,
// nv = its size); an *element* is the clique an elimination created,
// stored as the list Le of the variables it touches.  A variable's list
// holds its elements first (elen of them), then its remaining variable
// neighbours.  Index n is a placeholder element that absorbs dense rows.
FillOrder minDegreeOrder(const SparsePattern& pattern) {
  FillOrder out;
  const std::size_t size = pattern.size();
  if (size == 0) return out;
  const Int n = static_cast<Int>(size);
  const auto& rowStart = pattern.rowStart();
  const auto& cols = pattern.colIndex();

  // One workspace: ten per-object arrays of n + 1 entries, then the
  // quotient graph's lists with elbow room.  The list lengths are counted
  // first, into what becomes len[], so the workspace grows exactly once.
  //
  // Off-diagonal (r, c) enters r's list, and c's list unless (c, r) is a
  // pattern entry itself (row c contributes that one), so every list of
  // A + A^T is duplicate-free without a merge.
  const std::size_t stride = size + 1;
  std::vector<Int> ws(10 * stride, 0);
  for (std::size_t r = 0; r < size; ++r) {
    for (std::size_t s = rowStart[r]; s < rowStart[r + 1]; ++s) {
      const std::size_t c = cols[s];
      if (c == r) continue;
      ++ws[stride + r];
      if (pattern.slot(c, r) < 0) ++ws[stride + c];
    }
  }
  Int cnz = 0;
  for (std::size_t i = 0; i < size; ++i) cnz += ws[stride + i];
  // Elbow room: new elements are written past cnz, and the lists are
  // compacted in place when it runs out.
  const Int nzmax = cnz + cnz / 5 + 2 * n;
  ws.resize(10 * stride + static_cast<std::size_t>(nzmax));
  Int* const pe = ws.data();           // list start in iw (<0: see flip)
  Int* const len = pe + (n + 1);       // list length
  Int* const nv = len + (n + 1);       // supervariable size; <0 while in Lk
  Int* const next = nv + (n + 1);      // degree-list / hash-bucket link
  Int* const last = next + (n + 1);    // back link; hash key; the postorder
  Int* const head = last + (n + 1);    // degree-list heads; tree children
  Int* const elen = head + (n + 1);    // # elements in a variable's list
  Int* const degree = elen + (n + 1);  // approximate external degree
  Int* const w = degree + (n + 1);     // |Le \ Lk| + mark; 0 = dead element
  Int* const hhead = w + (n + 1);      // hash-bucket heads
  Int* const iw = hhead + (n + 1);     // the lists themselves, nzmax entries

  // --- quotient graph of A + A^T, diagonal dropped -------------------------
  for (Int i = 0, p = 0; i < n; ++i) {
    pe[i] = p;
    w[i] = p;  // fill cursor
    p += len[i];
  }
  for (std::size_t r = 0; r < size; ++r) {
    for (std::size_t s = rowStart[r]; s < rowStart[r + 1]; ++s) {
      const std::size_t c = cols[s];
      if (c == r) continue;
      iw[w[r]++] = static_cast<Int>(c);
      if (pattern.slot(c, r) < 0) iw[w[c]++] = static_cast<Int>(r);
    }
  }

  // --- initial degree lists --------------------------------------------------
  // Rows denser than max(16, 10 sqrt(n)) would dominate every degree
  // update; they are absorbed into element n up front and ordered last.
  const double root = std::sqrt(static_cast<double>(n));
  const Int dense =
      std::min(n - 2, std::max<Int>(16, static_cast<Int>(10.0 * root)));
  for (Int i = 0; i <= n; ++i) {
    head[i] = -1;
    last[i] = -1;
    next[i] = -1;
    hhead[i] = -1;
    nv[i] = 1;
    w[i] = 1;
    elen[i] = 0;
    degree[i] = len[i];
  }
  Int mark = clearMarks(0, w, n);
  elen[n] = -2;  // n is an element...
  pe[n] = -1;    // ...a root of the assembly tree...
  w[n] = 0;      // ...and dead
  Int nel = 0;   // variables eliminated (or set aside) so far
  for (Int i = 0; i < n; ++i) {
    const Int d = degree[i];
    if (d == 0) {
      // Isolated: an element of its own, a root of the tree.
      elen[i] = -2;
      ++nel;
      pe[i] = -1;
      w[i] = 0;
    } else if (d > dense) {
      nv[i] = 0;
      elen[i] = -1;
      ++nel;
      pe[i] = flip(n);
      ++nv[n];
    } else {
      if (head[d] != -1) last[head[d]] = i;
      next[i] = head[d];
      head[d] = i;
    }
  }

  Int mindeg = 0;
  Int lemax = 0;  // largest |Le| so far: bounds the marks one step uses
  while (nel < n) {
    // --- pivot: a variable of minimum approximate degree --------------------
    Int k = -1;
    for (; mindeg < n && (k = head[mindeg]) == -1; ++mindeg) {
    }
    if (next[k] != -1) last[next[k]] = -1;
    head[mindeg] = next[k];
    const Int elenk = elen[k];
    Int nvk = nv[k];
    nel += nvk;

    // --- compaction: the new element needs up to mindeg free slots ----------
    if (elenk > 0 && cnz + mindeg >= nzmax) {
      // Each live object's first entry moves into pe[] and is replaced by
      // flip(owner), so one sweep over iw can find and slide every object.
      for (Int j = 0; j < n; ++j) {
        const Int p = pe[j];
        if (p >= 0) {
          pe[j] = iw[p];
          iw[p] = flip(j);
        }
      }
      Int q = 0;
      for (Int p = 0; p < cnz;) {
        const Int j = flip(iw[p++]);
        if (j < 0) continue;
        iw[q] = pe[j];
        pe[j] = q++;
        for (Int t = 0; t < len[j] - 1; ++t) iw[q++] = iw[p++];
      }
      cnz = q;
    }

    // --- new element Lk: the union of k's variables and its elements' -------
    Int dk = 0;
    nv[k] = -nvk;  // flag k as in Lk
    Int p = pe[k];
    const Int pk1 = (elenk == 0) ? p : cnz;  // in place when k has no elements
    Int pk2 = pk1;
    for (Int k1 = 1; k1 <= elenk + 1; ++k1) {
      Int e = k;
      Int pj = p;
      Int ln = len[k] - elenk;
      if (k1 <= elenk) {
        e = iw[p++];
        pj = pe[e];
        ln = len[e];
      }
      for (Int k2 = 1; k2 <= ln; ++k2) {
        const Int i = iw[pj++];
        const Int nvi = nv[i];
        if (nvi <= 0) continue;  // dead, or already in Lk
        dk += nvi;
        nv[i] = -nvi;
        iw[pk2++] = i;
        if (next[i] != -1) last[next[i]] = last[i];
        if (last[i] != -1) {
          next[last[i]] = next[i];
        } else {
          head[degree[i]] = next[i];
        }
      }
      if (e != k) {
        pe[e] = flip(k);  // e is absorbed into k
        w[e] = 0;
      }
    }
    if (elenk != 0) cnz = pk2;
    degree[k] = dk;
    pe[k] = pk1;
    len[k] = pk2 - pk1;
    elen[k] = -2;

    // --- |Le \ Lk| for every element e adjacent to Lk ------------------------
    mark = clearMarks(mark, w, n);
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int eln = elen[i];
      if (eln <= 0) continue;
      const Int nvi = -nv[i];
      const Int wnvi = mark - nvi;
      for (Int q = pe[i]; q < pe[i] + eln; ++q) {
        const Int e = iw[q];
        if (w[e] >= mark) {
          w[e] -= nvi;
        } else if (w[e] != 0) {
          w[e] = degree[e] + wnvi;  // first sight of live element e
        }
      }
    }

    // --- approximate degrees, pruned lists, hashes of Lk's variables --------
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int p1 = pe[i];
      const Int p2 = p1 + elen[i] - 1;
      Int pn = p1;
      Int h = 0;
      Int d = 0;
      for (Int q = p1; q <= p2; ++q) {
        const Int e = iw[q];
        if (w[e] == 0) continue;  // absorbed element
        const Int dext = w[e] - mark;
        if (dext > 0) {
          d += dext;
          iw[pn++] = e;
          h += e;
        } else {
          pe[e] = flip(k);  // aggressive absorption: Le is inside Lk
          w[e] = 0;
        }
      }
      elen[i] = pn - p1 + 1;  // counting k, placed first below
      const Int p3 = pn;
      const Int p4 = p1 + len[i];
      for (Int q = p2 + 1; q < p4; ++q) {
        const Int j = iw[q];
        const Int nvj = nv[j];
        if (nvj <= 0) continue;  // dead, or in Lk (covered by k)
        d += nvj;
        iw[pn++] = j;
        h += j;
      }
      if (d == 0) {
        // Mass elimination: i's only neighbourhood is Lk itself.
        pe[i] = flip(k);
        const Int nvi = -nv[i];
        dk -= nvi;
        nvk += nvi;
        nel += nvi;
        nv[i] = 0;
        elen[i] = -1;
      } else {
        degree[i] = std::min(degree[i], d);
        iw[pn] = iw[p3];  // first variable moves to the end,
        iw[p3] = iw[p1];  // first element to the variables' start,
        iw[p1] = k;       // and k becomes the first element
        len[i] = pn - p1 + 1;
        h %= n;
        next[i] = hhead[h];
        hhead[h] = i;
        last[i] = h;
      }
    }
    degree[k] = dk;
    lemax = std::max(lemax, dk);
    mark = clearMarks(mark + lemax, w, n);

    // --- supervariables: merge Lk variables with identical lists ------------
    for (Int pk = pk1; pk < pk2; ++pk) {
      Int i = iw[pk];
      if (nv[i] >= 0) continue;  // absorbed above
      const Int h = last[i];
      i = hhead[h];
      hhead[h] = -1;
      for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
        const Int ln = len[i];
        const Int eln = elen[i];
        for (Int q = pe[i] + 1; q < pe[i] + ln; ++q) w[iw[q]] = mark;
        Int jlast = i;
        for (Int j = next[i]; j != -1;) {
          bool same = len[j] == ln && elen[j] == eln;
          for (Int q = pe[j] + 1; same && q < pe[j] + ln; ++q)
            same = w[iw[q]] == mark;
          if (same) {
            pe[j] = flip(i);  // j is absorbed into i
            nv[i] += nv[j];
            nv[j] = 0;
            elen[j] = -1;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
      }
    }

    // --- finalize Lk; Lk's variables re-enter the degree lists ---------------
    p = pk1;
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int nvi = -nv[i];
      if (nvi <= 0) continue;  // absorbed
      nv[i] = nvi;
      const Int d = std::min(degree[i] + dk - nvi, n - nel - nvi);
      if (head[d] != -1) last[head[d]] = i;
      next[i] = head[d];
      last[i] = -1;
      head[d] = i;
      mindeg = std::min(mindeg, d);
      degree[i] = d;
      iw[p++] = i;
    }
    nv[k] = nvk;
    len[k] = p - pk1;
    if (len[k] == 0) {
      pe[k] = -1;  // a root of the assembly tree
      w[k] = 0;
    }
    if (elenk != 0) cnz = p;
  }

  // --- postorder of the assembly tree ----------------------------------------
  // Absorbed variables hang under the element or supervariable that took
  // them, dense rows under element n; each parent's children are listed
  // elements first, each group in ascending index.
  for (Int i = 0; i < n; ++i) pe[i] = flip(pe[i]);
  for (Int j = 0; j <= n; ++j) head[j] = -1;
  for (Int j = n; j >= 0; --j) {
    if (nv[j] > 0) continue;  // an element
    next[j] = head[pe[j]];
    head[pe[j]] = j;
  }
  for (Int e = n; e >= 0; --e) {
    if (nv[e] <= 0 || pe[e] == -1) continue;
    next[e] = head[pe[e]];
    head[pe[e]] = e;
  }
  Int k = 0;
  for (Int i = 0; i <= n; ++i) {
    if (pe[i] == -1) k = postorderTree(i, k, head, next, last, w);
  }

  // Element n closes the postorder; the first n entries are the order.
  out.perm.resize(size);
  for (std::size_t i = 0; i < size; ++i)
    out.perm[i] = static_cast<std::size_t>(last[i]);
  out.sign = permutationSign(out.perm);
  return out;
}

}  // namespace vsstat::linalg
