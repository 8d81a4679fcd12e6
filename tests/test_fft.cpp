#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/poisson.h"
#include "util/rng.h"

namespace ep {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<double> randomReal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(SpectralPlan, IsPowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(48));
  EXPECT_FALSE(isPowerOfTwo(0));
}

// Poisson: manufacture rho from a single cosine mode and verify the analytic
// potential and field.
TEST(Poisson, SingleModeAnalyticSolution) {
  const std::size_t n = 64;
  const double dx = 0.5, dy = 0.25;
  const double widthX = n * dx, widthY = n * dy;
  const double wu = kPi * 3.0 / widthX;  // mode u=3
  const double wv = kPi * 5.0 / widthY;  // mode v=5
  std::vector<double> rho(n * n);
  for (std::size_t iy = 0; iy < n; ++iy) {
    const double y = (iy + 0.5) * dy;
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double x = (ix + 0.5) * dx;
      rho[iy * n + ix] = std::cos(wu * x) * std::cos(wv * y);
    }
  }
  PoissonSolver solver(n, n, dx, dy);
  solver.solve(rho);
  const double denom = wu * wu + wv * wv;
  for (std::size_t iy = 0; iy < n; iy += 5) {
    const double y = (iy + 0.5) * dy;
    for (std::size_t ix = 0; ix < n; ix += 5) {
      const double x = (ix + 0.5) * dx;
      const double psiRef = std::cos(wu * x) * std::cos(wv * y) / denom;
      const double exRef = -wu * std::sin(wu * x) * std::cos(wv * y) / denom;
      const double eyRef = -wv * std::cos(wu * x) * std::sin(wv * y) / denom;
      EXPECT_NEAR(solver.psi()[iy * n + ix], psiRef, 1e-9);
      EXPECT_NEAR(solver.fieldX()[iy * n + ix], exRef, 1e-9);
      EXPECT_NEAR(solver.fieldY()[iy * n + ix], eyRef, 1e-9);
    }
  }
}

TEST(Poisson, UniformDensityGivesZeroField) {
  const std::size_t n = 32;
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(n * n, 3.5);
  solver.solve(rho);
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_NEAR(solver.psi()[i], 0.0, 1e-9);
    EXPECT_NEAR(solver.fieldX()[i], 0.0, 1e-9);
    EXPECT_NEAR(solver.fieldY()[i], 0.0, 1e-9);
  }
}

TEST(Poisson, PotentialHasZeroMean) {
  const std::size_t n = 32;
  PoissonSolver solver(n, n, 2.0, 2.0);
  auto rho = randomReal(n * n, 55);
  solver.solve(rho);
  double mean = 0.0;
  for (double p : solver.psi()) mean += p;
  mean /= static_cast<double>(n * n);
  EXPECT_NEAR(mean, 0.0, 1e-10);
}

TEST(Poisson, FieldPointsAwayFromBlob) {
  // A centered square blob of charge: the field left of center must point
  // further left (negative gradient direction is used by the optimizer as
  // force, so grad psi points toward the blob... check signs precisely).
  const std::size_t n = 64;
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(n * n, 0.0);
  for (std::size_t iy = 28; iy < 36; ++iy)
    for (std::size_t ix = 28; ix < 36; ++ix) rho[iy * n + ix] = 1.0;
  solver.solve(rho);
  // psi peaks at the blob; to the left of it d psi / dx > 0 (climbing).
  const std::size_t row = 32;
  EXPECT_GT(solver.fieldX()[row * n + 16], 0.0);
  EXPECT_LT(solver.fieldX()[row * n + 48], 0.0);
  EXPECT_GT(solver.fieldY()[16 * n + 32], 0.0);
  EXPECT_LT(solver.fieldY()[48 * n + 32], 0.0);
  // Potential at the blob exceeds potential at the corner.
  EXPECT_GT(solver.psi()[32 * n + 32], solver.psi()[2 * n + 2]);
}

TEST(Poisson, LaplacianResidualSmallForSmoothRho) {
  // For a band-limited rho (sum of a few modes) the discrete Laplacian of
  // psi should reproduce -rho away from aliasing.
  const std::size_t n = 64;
  const double dx = 1.0, dy = 1.0;
  PoissonSolver solver(n, n, dx, dy);
  std::vector<double> rho(n * n);
  const double widthX = n * dx;
  for (std::size_t iy = 0; iy < n; ++iy) {
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double x = (ix + 0.5) * dx, y = (iy + 0.5) * dy;
      rho[iy * n + ix] = std::cos(kPi * 2 * x / widthX) +
                         0.5 * std::cos(kPi * 4 * y / widthX) *
                             std::cos(kPi * 3 * x / widthX);
    }
  }
  solver.solve(rho);
  auto psi = solver.psi();
  double maxResidual = 0.0;
  for (std::size_t iy = 1; iy + 1 < n; ++iy) {
    for (std::size_t ix = 1; ix + 1 < n; ++ix) {
      const double lap =
          (psi[iy * n + ix + 1] - 2 * psi[iy * n + ix] + psi[iy * n + ix - 1]) /
              (dx * dx) +
          (psi[(iy + 1) * n + ix] - 2 * psi[iy * n + ix] +
           psi[(iy - 1) * n + ix]) /
              (dy * dy);
      maxResidual = std::max(maxResidual, std::abs(lap + rho[iy * n + ix]));
    }
  }
  // Second-order finite differences of low modes: residual O(w^2 dx^2) ~ 1e-2.
  EXPECT_LT(maxResidual, 5e-2);
}

}  // namespace
}  // namespace ep
