#include "fft/poisson.h"

#include <algorithm>
#include <cassert>
#include <numbers>

#include "model/placement_view.h"

namespace ep {

PoissonSolver::PoissonSolver(std::size_t nx, std::size_t ny, double dx,
                             double dy, ScratchArena* arena,
                             FaultInjector* faults)
    : nx_(nx),
      ny_(ny),
      planX_(nx, arena, faults),
      planY_(ny, arena, faults),
      wx_(nx),
      wy_(ny) {
  assert(isPowerOfTwo(nx) && isPowerOfTwo(ny));
  const double widthX = static_cast<double>(nx) * dx;
  const double widthY = static_cast<double>(ny) * dy;
  for (std::size_t u = 0; u < nx; ++u) {
    wx_[u] = std::numbers::pi * static_cast<double>(u) / widthX;
  }
  for (std::size_t v = 0; v < ny; ++v) {
    wy_[v] = std::numbers::pi * static_cast<double>(v) / widthY;
  }

  auto lease = [&](const char* key, std::size_t count) -> std::span<double> {
    if (arena != nullptr) return arena->doubles(key, count);
    own_.emplace_back(count);
    return own_.back();
  };
  pre_ = lease("fft.pre", nx * ny);
  coeff_ = lease("fft.coeff", nx * ny);
  psi_ = lease("fft.psi", nx * ny);
  ex_ = lease("fft.ex", nx * ny);
  ey_ = lease("fft.ey", nx * ny);

  // One multiply per bin replaces the per-solve normalization loop and the
  // 1/(w_u^2 + w_v^2) division: pre_uv folds the DCT orthogonality factor
  // (2/N per axis, halved at the zero frequency) into the Poisson kernel.
  const double sx = 2.0 / static_cast<double>(nx);
  const double sy = 2.0 / static_cast<double>(ny);
  for (std::size_t v = 0; v < ny; ++v) {
    const double fy = (v == 0) ? sy * 0.5 : sy;
    for (std::size_t u = 0; u < nx; ++u) {
      const double fx = (u == 0) ? sx * 0.5 : sx;
      const double w2 = wx_[u] * wx_[u] + wy_[v] * wy_[v];
      pre_[v * nx + u] = (u == 0 && v == 0) ? 0.0 : fx * fy / w2;
    }
  }
  // Zero the outputs so accessors are defined before the first solve.
  std::fill(psi_.begin(), psi_.end(), 0.0);
  std::fill(ex_.begin(), ex_.end(), 0.0);
  std::fill(ey_.begin(), ey_.end(), 0.0);
}

void PoissonSolver::solve(std::span<const double> rho, ThreadPool* pool) {
  assert(rho.size() == nx_ * ny_);
  const std::size_t nx = nx_, ny = ny_;

  // Analysis: raw DCT-II both axes.
  std::copy(rho.begin(), rho.end(), coeff_.begin());
  spectral2d(coeff_, nx, ny, planX_, planY_, TrigOp::kDct2, TrigOp::kDct2,
             pool, &ws_);

  // Potential spectrum: psi_uv = a_uv / (w_u^2 + w_v^2) with the DCT
  // normalization and the a_00 removal baked into pre_.
  for (std::size_t b = 0; b < nx * ny; ++b) {
    psi_[b] = coeff_[b] * pre_[b];
  }

  // Field x: -psi_uv * w_u paired with sin(w_u x); sineSynthesis stores the
  // coefficient of frequency u at slot u-1, and frequency nx is absent.
  for (std::size_t v = 0; v < ny; ++v) {
    double* exRow = ex_.data() + v * nx;
    const double* psiRow = psi_.data() + v * nx;
    for (std::size_t u = 1; u < nx; ++u) {
      exRow[u - 1] = -psiRow[u] * wx_[u];
    }
    exRow[nx - 1] = 0.0;
  }
  // Field y likewise along the y axis (per-output-row contiguous writes
  // with a constant w_v so the copies vectorize).
  for (std::size_t v = 1; v < ny; ++v) {
    double* eyRow = ey_.data() + (v - 1) * nx;
    const double* psiRow = psi_.data() + v * nx;
    const double wv = -wy_[v];
    for (std::size_t u = 0; u < nx; ++u) {
      eyRow[u] = psiRow[u] * wv;
    }
  }
  std::fill(ey_.begin() + static_cast<std::ptrdiff_t>((ny - 1) * nx),
            ey_.end(), 0.0);

  // Synthesis: both field components batched pairwise into single complex
  // transforms (fft/plan.h). psi_ keeps its coefficients until psi().
  spectralFieldSynthesis2d(ex_, ey_, nx, ny, planX_, planY_, pool, &ws_);
  psiSpectral_ = true;
}

std::span<const double> PoissonSolver::psi(ThreadPool* pool) {
  if (psiSpectral_) {
    spectral2d(psi_, nx_, ny_, planX_, planY_, TrigOp::kCosSynth,
               TrigOp::kCosSynth, pool, &ws_);
    psiSpectral_ = false;
  }
  return psi_;
}

}  // namespace ep
