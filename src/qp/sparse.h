// Sparse symmetric linear algebra for the quadratic placement engine:
// a COO accumulator, a CSR matrix, and a Jacobi-preconditioned conjugate
// gradient solver. Sized for placement systems (n up to a few hundred
// thousand, a handful of entries per row from the B2B model).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ep {

class ThreadPool;

/// Compressed sparse row matrix (square).
struct Csr {
  std::int32_t n = 0;
  std::vector<std::int32_t> start;  // n+1
  std::vector<std::int32_t> col;
  std::vector<double> val;

  /// y = A x. With a pool the rows are split across it; each row is still
  /// summed in CSR order, so y is bit-identical for any thread count.
  void multiply(std::span<const double> x, std::span<double> y,
                ThreadPool* pool = nullptr) const;
};

/// Accumulates symmetric quadratic-form entries and compresses to CSR.
/// Duplicate coordinates are summed during build, in the order they were
/// added, so the CSR values depend only on the sequence of add calls.
class CooBuilder {
 public:
  explicit CooBuilder(std::int32_t n) : n_(n) {}

  /// A_ii += w.
  void addDiag(std::int32_t i, double w);
  /// A_ij += w and A_ji += w (call with the off-diagonal value, usually
  /// negative for a connection of weight -w... callers pass w directly).
  void addOffDiag(std::int32_t i, std::int32_t j, double w);
  /// Convenience: a two-movable spring of weight w
  /// (A_ii += w, A_jj += w, A_ij -= w, A_ji -= w).
  void addSpring(std::int32_t i, std::int32_t j, double w);

  /// Reserves room for `entries` accumulated coordinates.
  void reserve(std::size_t entries) { entries_.reserve(entries); }

  /// Counting-sorts the entries by row in place (stable), sorts each row
  /// by column, sums duplicates into CSR with columns ascending in each
  /// row, and frees the entries: the builder is consumed. Transient memory
  /// is the entries, 4 B per entry of sort scratch and the CSR.
  [[nodiscard]] Csr build() &&;
  [[nodiscard]] std::int32_t size() const { return n_; }

 private:
  struct Entry {
    std::int32_t row, col;
    double val;
  };
  std::int32_t n_;
  std::vector<Entry> entries_;
};

struct CgResult {
  int iterations = 0;
  double residual = 0.0;  ///< ||Ax-b|| / ||b||
};

/// Solve A x = b with Jacobi-preconditioned CG, starting from the x passed
/// in. A must be symmetric positive definite (the B2B system with at least
/// one fixed-pin anchor is). `iterations` counts completed CG steps, so a
/// solve stopped by the cap reports `maxIter`. With a pool the SpMV and
/// the element-wise vector updates run on it while dot products stay
/// serial in index order: the result is bit-identical for any pool.
CgResult cgSolve(const Csr& A, std::span<const double> b, std::span<double> x,
                 int maxIter = 300, double tol = 1e-6,
                 ThreadPool* pool = nullptr);

}  // namespace ep
