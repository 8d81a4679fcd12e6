#include "qp/sparse.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/parallel.h"
#include "util/stats.h"

namespace ep {

namespace {

/// fn(i) for every i in [0, n), split across `pool` when there is one.
/// Only for element-wise bodies: each index must write its own outputs.
template <typename F>
void forEachIndex(ThreadPool* pool, std::size_t n, const F& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallelFor(n, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  });
}

}  // namespace

void Csr::multiply(std::span<const double> x, std::span<double> y,
                   ThreadPool* pool) const {
  assert(x.size() == static_cast<std::size_t>(n));
  assert(y.size() == static_cast<std::size_t>(n));
  forEachIndex(pool, static_cast<std::size_t>(n), [&](std::size_t i) {
    double s = 0.0;
    for (std::int32_t k = start[i]; k < start[i + 1]; ++k) {
      s += val[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    }
    y[i] = s;
  });
}

void CooBuilder::addDiag(std::int32_t i, double w) {
  entries_.push_back({i, i, w});
}

void CooBuilder::addOffDiag(std::int32_t i, std::int32_t j, double w) {
  entries_.push_back({i, j, w});
  entries_.push_back({j, i, w});
}

void CooBuilder::addSpring(std::int32_t i, std::int32_t j, double w) {
  addDiag(i, w);
  addDiag(j, w);
  addOffDiag(i, j, -w);
}

Csr CooBuilder::build() && {
  // Stable counting sort by row, in place: each entry's destination is its
  // row's next free slot, taken in insertion order, and a cycle walk moves
  // every entry there. Besides the CSR, only the destinations (4 B an
  // entry) and one slot per row are extra: the entries are not copied.
  const std::size_t count = entries_.size();
  assert(count < std::size_t{1} << 32);
  Csr m;
  m.n = n_;
  m.start.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const Entry& e : entries_) ++m.start[static_cast<std::size_t>(e.row) + 1];
  for (std::size_t i = 1; i < m.start.size(); ++i) m.start[i] += m.start[i - 1];
  {
    std::vector<std::uint32_t> dest(count);
    std::vector<std::int32_t> next(m.start.begin(), m.start.end() - 1);
    for (std::size_t k = 0; k < count; ++k) {
      dest[k] = static_cast<std::uint32_t>(
          next[static_cast<std::size_t>(entries_[k].row)]++);
    }
    for (std::size_t k = 0; k < count; ++k) {
      while (dest[k] != k) {
        const std::uint32_t j = dest[k];
        std::swap(entries_[k], entries_[j]);
        std::swap(dest[k], dest[j]);
      }
    }
  }

  // Within each row, in insertion order: the first entry of a column takes
  // the row's next output slot (`slot` maps a column to it) and later
  // duplicates are summed into it. The unique entries are compacted to the
  // front of the array, then sorted by column (an insertion sort: rows hold
  // a handful of entries).
  std::vector<std::int32_t> slot(static_cast<std::size_t>(n_), -1);
  std::size_t nnz = 0;
  for (std::int32_t r = 0; r < n_; ++r) {
    const auto b = static_cast<std::size_t>(m.start[static_cast<std::size_t>(r)]);
    const auto e =
        static_cast<std::size_t>(m.start[static_cast<std::size_t>(r) + 1]);
    const std::size_t rowBegin = nnz;
    m.start[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(nnz);
    for (std::size_t k = b; k < e; ++k) {
      const Entry cur = entries_[k];
      auto& s = slot[static_cast<std::size_t>(cur.col)];
      if (s < m.start[static_cast<std::size_t>(r)]) {  // first in this row
        s = static_cast<std::int32_t>(nnz);
        entries_[nnz++] = cur;
      } else {
        entries_[static_cast<std::size_t>(s)].val += cur.val;
      }
    }
    for (std::size_t k = rowBegin + 1; k < nnz; ++k) {
      const Entry cur = entries_[k];
      std::size_t j = k;
      for (; j > rowBegin && entries_[j - 1].col > cur.col; --j) {
        entries_[j] = entries_[j - 1];
      }
      entries_[j] = cur;
    }
  }
  m.start[static_cast<std::size_t>(n_)] = static_cast<std::int32_t>(nnz);

  m.col.resize(nnz);
  m.val.resize(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    m.col[k] = entries_[k].col;
    m.val[k] = entries_[k].val;
  }
  std::vector<Entry>().swap(entries_);
  return m;
}

CgResult cgSolve(const Csr& A, std::span<const double> b, std::span<double> x,
                 int maxIter, double tol, ThreadPool* pool) {
  const auto n = static_cast<std::size_t>(A.n);
  std::vector<double> diag(n, 1.0);
  for (std::int32_t i = 0; i < A.n; ++i) {
    for (std::int32_t k = A.start[static_cast<std::size_t>(i)];
         k < A.start[static_cast<std::size_t>(i) + 1]; ++k) {
      if (A.col[static_cast<std::size_t>(k)] == i) {
        const double d = A.val[static_cast<std::size_t>(k)];
        if (d > 0.0) diag[static_cast<std::size_t>(i)] = d;
      }
    }
  }

  std::vector<double> r(n), z(n), p(n), Ap(n);
  A.multiply(x, Ap, pool);
  forEachIndex(pool, n, [&](std::size_t i) {
    r[i] = b[i] - Ap[i];
    z[i] = r[i] / diag[i];
    p[i] = z[i];
  });
  const double bNorm = std::max(norm2(b), 1e-30);
  double rz = dot(r, z);

  CgResult res;
  int it = 0;
  for (; it < maxIter; ++it) {
    if (norm2(r) / bNorm < tol) break;
    A.multiply(p, Ap, pool);
    const double pAp = dot(p, Ap);
    if (pAp <= 0.0) break;  // numerical breakdown / not SPD
    const double alpha = rz / pAp;
    forEachIndex(pool, n, [&](std::size_t i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * Ap[i];
      z[i] = r[i] / diag[i];
    });
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    forEachIndex(pool, n, [&](std::size_t i) { p[i] = z[i] + beta * p[i]; });
  }
  res.iterations = it;
  res.residual = norm2(r) / bNorm;
  return res;
}

}  // namespace ep
