// Spectral solver for the placement Poisson problem, Eq. (6) of the paper:
//
//   div grad psi(x,y) = -rho(x,y)      on R = [0, nx*dx] x [0, ny*dy]
//   n . grad psi = 0                   on dR (Neumann)
//   integral of rho = integral of psi = 0   (zero-frequency removal)
//
// With Neumann walls the natural basis is the half-sample cosine family
// cos(w_u x), w_u = pi u / W, evaluated at bin centers — exactly the DCT-II
// grid. Writing rho = sum a_uv cos(w_u x) cos(w_v y) gives
//
//   psi   = sum  a_uv / (w_u^2 + w_v^2) cos(w_u x) cos(w_v y)
//   dpsi/dx = sum -a_uv w_u / (w_u^2 + w_v^2) sin(w_u x) cos(w_v y)
//
// a_00 is dropped per the paper so that the equilibrium couples to an even
// charge distribution inside R. The transforms run through SpectralPlan
// (half-length real FFTs; the two field components share one complex
// inverse per row/column pair — see fft/plan.h). A solve is the analysis
// plus the field pair; psi, which only the energy N(v) reads, is
// synthesized from its kept coefficients on the first read after a solve.
// The DCT orthogonality normalization and the 1/(w_u^2+w_v^2) kernel are
// folded into one precomputed per-bin multiply.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fft/plan.h"

namespace ep {

class PoissonSolver {
 public:
  /// Grid of nx*ny bins (each a power of two) of physical size dx*dy.
  /// With `arena` non-null every persistent buffer (plan tables, spectral
  /// coefficient/field grids) is leased from it under "fft." keys — zero
  /// allocations per solve after construction, growth charged to the
  /// arena's MemoryBudget. Like the "den." maps, at most one solver may
  /// lease those keys at a time. `faults` (optional, borrowed) reaches
  /// the plans' "fft.forward" fault site; pass the owning context's
  /// injector.
  PoissonSolver(std::size_t nx, std::size_t ny, double dx, double dy,
                ScratchArena* arena = nullptr,
                FaultInjector* faults = nullptr);

  /// Solve for the density grid `rho` (row-major, index iy*nx+ix).
  /// After the call fieldX(), fieldY() hold the field xi = grad psi
  /// sampled at bin centers, and psi's spectral coefficients are kept for
  /// psi(). With a pool the row/column transform batches run concurrently;
  /// results are bit-identical for any thread count (see spectral2d).
  void solve(std::span<const double> rho, ThreadPool* pool = nullptr);

  /// The potential psi at bin centers. The first read after a solve
  /// synthesizes it in place from the kept coefficients, on `pool` when
  /// given (bit-identical for any pool; the pool is not kept, so it may
  /// differ from solve's); later reads return it as is.
  [[nodiscard]] std::span<const double> psi(ThreadPool* pool = nullptr);
  [[nodiscard]] std::span<const double> fieldX() const { return ex_; }
  [[nodiscard]] std::span<const double> fieldY() const { return ey_; }

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }

 private:
  std::size_t nx_, ny_;
  SpectralPlan planX_, planY_;
  std::vector<double> wx_, wy_;  // angular frequencies w_u, w_v
  // Owned fallback for the spans below when no arena was supplied. Inner
  // heap buffers are pointer-stable under outer growth, so spans hold.
  std::vector<std::vector<double>> own_;
  std::span<double> pre_;    // fx*fy / (w_u^2 + w_v^2), slot 0 == 0
  std::span<double> coeff_;  // a_uv scratch
  std::span<double> psi_, ex_, ey_;
  bool psiSpectral_ = false;  // psi_ holds coefficients, not values
  Spectral2dWorkspace ws_;  // per-thread transform scratch
};

}  // namespace ep
