#include "qp/sparse.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
  auto& sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr m;
  m.n = n_;
  m.start.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::size_t k = 0; k < sorted.size();) {
    std::size_t j = k;
    double sum = 0.0;
    while (j < sorted.size() && sorted[j].row == sorted[k].row &&
           sorted[j].col == sorted[k].col) {
      sum += sorted[j].val;
      ++j;
    }
    m.col.push_back(sorted[k].col);
    m.val.push_back(sum);
    ++m.start[static_cast<std::size_t>(sorted[k].row) + 1];
    k = j;
  }
  for (std::size_t i = 1; i < m.start.size(); ++i) m.start[i] += m.start[i - 1];
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
