// Property tests for the numeric kernels the placer's hot paths rely on:
// SpectralPlan's trigonometric transforms against naive O(n^2) direct sums
// accumulated in long double (an oracle that shares no factorization,
// twiddle table or FP schedule with the plan), the WA wirelength gradient
// against central finite differences, BinGrid::stampAll against the serial
// stamp loop, and the ThreadPool's partitioning/reduction/error contracts,
// plus a sentinel that the build keeps multiply and add separately rounded
// (no FMA contraction).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "density/bingrid.h"
#include "fft/plan.h"
#include "gen/generator.h"
#include "model/placement_view.h"
#include "util/parallel.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// ---------- SpectralPlan: the planned real-input pipeline ----------

// The grid sizes the Poisson solver actually plans for.
constexpr std::size_t kSolverSizes[] = {32, 64, 128, 256, 512, 1024};

double maxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

// Naive O(n^2) direct sums of the transforms defined in fft/plan.h, with
// the trigonometric weights and the accumulation in long double, rounded to
// double once at the end.
std::vector<double> naiveTrig(TrigOp op, const std::vector<double>& x) {
  constexpr long double kPi = std::numbers::pi_v<long double>;
  const std::size_t n = x.size();
  const long double nL = static_cast<long double>(n);
  std::vector<double> out(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const long double kL = static_cast<long double>(k);
    long double sum = 0.0L;
    for (std::size_t j = 0; j < n; ++j) {
      const long double jL = static_cast<long double>(j);
      const long double xj = x[j];
      switch (op) {
        case TrigOp::kDct2:
          sum += xj * std::cos(kPi * (2.0L * jL + 1.0L) * kL / (2.0L * nL));
          break;
        case TrigOp::kIdct2:
          // x here holds coefficients; j indexes the coefficient.
          sum += (j == 0 ? 1.0L : 2.0L) / nL * xj *
                 std::cos(kPi * jL * (2.0L * kL + 1.0L) / (2.0L * nL));
          break;
        case TrigOp::kCosSynth:
          sum += xj * std::cos(kPi * jL * (2.0L * kL + 1.0L) / (2.0L * nL));
          break;
        case TrigOp::kSinSynth:
          sum += xj * std::sin(kPi * (jL + 1.0L) * (2.0L * kL + 1.0L) /
                               (2.0L * nL));
          break;
      }
    }
    out[k] = static_cast<double>(sum);
  }
  return out;
}

// Adversarial inputs for the real-FFT pipeline: the Makhoul permutation and
// Hermitian unpack touch exactly the slots these vectors stress (first/last
// element, pure DC, Nyquist-rate alternation, huge dynamic range).
std::vector<std::vector<double>> adversarialInputs(std::size_t n) {
  std::vector<std::vector<double>> cases;
  std::vector<double> v(n, 0.0);
  v[0] = 1.0;
  cases.push_back(v);  // impulse at 0
  std::fill(v.begin(), v.end(), 0.0);
  v[n - 1] = 1.0;
  cases.push_back(v);  // impulse at n-1
  std::fill(v.begin(), v.end(), 1.0);
  cases.push_back(v);  // constant (DC only)
  for (std::size_t j = 0; j < n; ++j) v[j] = (j % 2 == 0) ? 1.0 : -1.0;
  cases.push_back(v);  // alternating (Nyquist)
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = (j % 3 == 0 ? 1e8 : 1e-8) * ((j % 5 < 2) ? -1.0 : 1.0);
  }
  cases.push_back(v);  // mixed dynamic range
  return cases;
}

TEST(SpectralPlanProperties, MatchesNaiveRealDftSumsOnRandomAndAdversarial) {
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 128u, 512u}) {
    SpectralPlan plan(n);
    SpectralScratch s;
    auto inputs = adversarialInputs(n);
    inputs.push_back(randomVector(n, 900 + n));
    for (const auto& x : inputs) {
      for (const TrigOp op : {TrigOp::kDct2, TrigOp::kIdct2, TrigOp::kCosSynth,
                              TrigOp::kSinSynth}) {
        const std::vector<double> ref = naiveTrig(op, x);
        std::vector<double> fast = x;
        plan.apply(op, fast, s);
        const double tol =
            1e-13 * static_cast<double>(n) * std::max(1.0, maxAbs(ref));
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_NEAR(fast[k], ref[k], tol)
              << "n=" << n << " op=" << static_cast<int>(op) << " k=" << k;
        }
      }
    }
    // Linearity: T(3a - 2b) = 3 T(a) - 2 T(b) for every transform.
    const std::vector<double>& a = inputs.back();
    const std::vector<double> b = randomVector(n, 950 + n);
    for (const TrigOp op : {TrigOp::kDct2, TrigOp::kIdct2, TrigOp::kCosSynth,
                            TrigOp::kSinSynth}) {
      std::vector<double> ta = a, tb = b, mix(n);
      for (std::size_t j = 0; j < n; ++j) mix[j] = 3.0 * a[j] - 2.0 * b[j];
      plan.apply(op, ta, s);
      plan.apply(op, tb, s);
      plan.apply(op, mix, s);
      const double tol =
          1e-13 * static_cast<double>(n) * std::max(1.0, maxAbs(mix));
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(mix[k], 3.0 * ta[k] - 2.0 * tb[k], tol)
            << "n=" << n << " op=" << static_cast<int>(op) << " k=" << k;
      }
    }
  }
}

TEST(SpectralPlanProperties, RoundTripAndParsevalAtEverySolverSize) {
  for (const std::size_t n : kSolverSizes) {
    SpectralPlan plan(n);
    SpectralScratch s;
    const double nD = static_cast<double>(n);
    const std::vector<double> x = randomVector(n, 1000 + n);

    // DCT-II -> inverse DCT-II round trip.
    std::vector<double> y = x;
    plan.dct2(y, s);
    const std::vector<double> c = y;
    plan.idct2(y, s);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(y[j], x[j], 1e-13 * nD) << "n=" << n << " j=" << j;
    }

    // DCT-II Parseval: sum x^2 = C_0^2/n + (2/n) sum_{k>=1} C_k^2.
    double timeE = 0.0;
    for (double v : x) timeE += v * v;
    double freqE = c[0] * c[0] / nD;
    for (std::size_t k = 1; k < n; ++k) freqE += 2.0 / nD * c[k] * c[k];
    EXPECT_NEAR(freqE, timeE, 1e-12 * nD * timeE) << "n=" << n;

    // Sine-synthesis Parseval (basis k<n-1 has energy n/2, the Nyquist
    // basis k=n-1 is the alternating +-1 sequence with energy n).
    const std::vector<double> sv = randomVector(n, 2000 + n);
    std::vector<double> ys = sv;
    plan.sineSynthesis(ys, s);
    double outE = 0.0;
    for (double v : ys) outE += v * v;
    double coefE = nD * sv[n - 1] * sv[n - 1];
    for (std::size_t k = 0; k + 1 < n; ++k) coefE += 0.5 * nD * sv[k] * sv[k];
    EXPECT_NEAR(outE, coefE, 1e-12 * nD * coefE) << "n=" << n;

    // Cosine-synthesis Parseval (DC basis has energy n, the rest n/2).
    std::vector<double> yc = sv;
    plan.cosineSynthesis(yc, s);
    outE = 0.0;
    for (double v : yc) outE += v * v;
    coefE = nD * sv[0] * sv[0];
    for (std::size_t k = 1; k < n; ++k) coefE += 0.5 * nD * sv[k] * sv[k];
    EXPECT_NEAR(outE, coefE, 1e-12 * nD * coefE) << "n=" << n;
  }
}

TEST(SpectralPlanProperties, MatchesDirectSumOracleWithinScaledUlps) {
  // Independent oracle: the long-double direct sums of naiveTrig. The
  // planned pipeline must agree with them to a few ulps of the output
  // magnitude at every solver size.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (const std::size_t n : kSolverSizes) {
    SpectralPlan plan(n);
    SpectralScratch s;
    const std::vector<double> x = randomVector(n, 3000 + n);
    for (const TrigOp op : {TrigOp::kDct2, TrigOp::kIdct2, TrigOp::kCosSynth,
                            TrigOp::kSinSynth}) {
      const std::vector<double> ref = naiveTrig(op, x);
      std::vector<double> a = x;
      plan.apply(op, a, s);
      const double tol = 16.0 * kEps * std::max(1.0, maxAbs(ref)) *
                         std::log2(static_cast<double>(n));
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(a[k], ref[k], tol)
            << "n=" << n << " op=" << static_cast<int>(op) << " k=" << k;
      }
    }
  }
}

TEST(SpectralPlanProperties, SynthesisPairMatchesSingleSyntheses) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (const std::size_t n : kSolverSizes) {
    SpectralPlan plan(n);
    SpectralScratch s;
    const std::vector<double> a0 = randomVector(n, 4000 + n);
    const std::vector<double> b0 = randomVector(n, 5000 + n);
    for (const auto& [opA, opB] :
         {std::pair{TrigOp::kSinSynth, TrigOp::kCosSynth},
          std::pair{TrigOp::kCosSynth, TrigOp::kSinSynth},
          std::pair{TrigOp::kCosSynth, TrigOp::kCosSynth}}) {
      std::vector<double> aP = a0, bP = b0, aS = a0, bS = b0;
      plan.synthesisPair(aP, opA, bP, opB, s);
      plan.apply(opA, aS, s);
      plan.apply(opB, bS, s);
      const double tol = 32.0 * kEps *
                         std::max(1.0, std::max(maxAbs(aS), maxAbs(bS))) *
                         std::log2(static_cast<double>(n));
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(aP[k], aS[k], tol) << "n=" << n << " k=" << k;
        ASSERT_NEAR(bP[k], bS[k], tol) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SpectralPlanProperties, ArenaBackedPlanBitIdenticalToOwnedPlan) {
  ScratchArena arena;
  for (const std::size_t n : {32u, 256u}) {
    SpectralPlan owned(n);
    SpectralPlan leased(n, &arena);
    SpectralScratch s;
    const std::vector<double> x = randomVector(n, 6000 + n);
    for (const TrigOp op : {TrigOp::kDct2, TrigOp::kIdct2, TrigOp::kCosSynth,
                            TrigOp::kSinSynth}) {
      std::vector<double> a = x, b = x;
      owned.apply(op, a, s);
      leased.apply(op, b, s);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k]),
                  std::bit_cast<std::uint64_t>(b[k]))
            << "n=" << n << " op=" << static_cast<int>(op) << " k=" << k;
      }
    }
  }
  // A second same-size plan leases the SAME tables: no arena growth.
  const std::size_t buffers = arena.bufferCount();
  SpectralPlan again(256, &arena);
  EXPECT_EQ(arena.bufferCount(), buffers);
}

TEST(SpectralPlanProperties, Spectral2dParallelBitIdenticalToSerial) {
  const std::size_t nx = 64, ny = 32;
  const std::vector<double> grid = randomVector(nx * ny, 7000);
  SpectralPlan planX(nx), planY(ny);
  ThreadPool pool(4);
  for (const auto& [opX, opY] : {std::pair{TrigOp::kDct2, TrigOp::kDct2},
                                std::pair{TrigOp::kCosSynth, TrigOp::kCosSynth},
                                std::pair{TrigOp::kSinSynth, TrigOp::kCosSynth}}) {
    std::vector<double> a = grid, b = grid;
    Spectral2dWorkspace wsA, wsB;
    spectral2d(a, nx, ny, planX, planY, opX, opY, nullptr, &wsA);
    spectral2d(b, nx, ny, planX, planY, opX, opY, &pool, &wsB);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << "bin " << i;
    }
  }
  // dct2 -> idct2 along both axes round-trips the grid.
  std::vector<double> rt = grid;
  Spectral2dWorkspace wsRt;
  spectral2d(rt, nx, ny, planX, planY, TrigOp::kDct2, TrigOp::kDct2, &pool,
             &wsRt);
  spectral2d(rt, nx, ny, planX, planY, TrigOp::kIdct2, TrigOp::kIdct2, &pool,
             &wsRt);
  for (std::size_t i = 0; i < rt.size(); ++i) {
    ASSERT_NEAR(rt[i], grid[i], 1e-12) << "bin " << i;
  }
  // Batched field synthesis: same contract.
  std::vector<double> exA = grid, exB = grid;
  std::vector<double> eyA = randomVector(nx * ny, 7001), eyB = eyA;
  Spectral2dWorkspace wsA, wsB;
  spectralFieldSynthesis2d(exA, eyA, nx, ny, planX, planY, nullptr, &wsA);
  spectralFieldSynthesis2d(exB, eyB, nx, ny, planX, planY, &pool, &wsB);
  for (std::size_t i = 0; i < exA.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(exA[i]),
              std::bit_cast<std::uint64_t>(exB[i]))
        << "ex bin " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(eyA[i]),
              std::bit_cast<std::uint64_t>(eyB[i]))
        << "ey bin " << i;
  }
}

// ---------- FP contraction sentinel ----------

// a*b = 1 - 2^-60 rounds to 1.0, so a*b + c is exactly 0 when the multiply
// and the add round separately; a fused multiply-add keeps the product
// exact and yields -2^-60. The volatile loads stop constant folding, so
// this fails on an FMA target built without -ffp-contract=off — the same
// cause that makes the goldens diverge under -march=native.
TEST(FpSemantics, MultiplyAddIsNotContractedToFma) {
  volatile double va = 1.0 + 0x1p-30;
  volatile double vb = 1.0 - 0x1p-30;
  volatile double vc = -1.0;
  const double a = va, b = vb, c = vc;
  EXPECT_EQ(a * b + c, 0.0)
      << "a*b+c was fused into an FMA; build with -ffp-contract=off";
}

// ---------- WA wirelength gradient vs finite differences ----------

TEST(WirelengthProperties, WaGradientMatchesFiniteDifferences) {
  for (const std::uint64_t seed : {701u, 702u, 703u}) {
    GenSpec spec;
    spec.name = "fd";
    spec.numCells = 40;
    spec.numIo = 8;
    spec.seed = seed;
    const PlacementDB db = generateCircuit(spec);

    const auto movables = db.movable();
    const std::size_t nVars = movables.size();
    std::vector<std::int32_t> objToVar(db.objects.size(), -1);
    std::vector<double> x(nVars), y(nVars);
    for (std::size_t v = 0; v < nVars; ++v) {
      const auto obj = static_cast<std::size_t>(movables[v]);
      objToVar[obj] = static_cast<std::int32_t>(v);
      const Point c = db.objects[obj].center();
      x[v] = c.x;
      y[v] = c.y;
    }
    const VarView view{&db, objToVar, x, y};
    const double gamma = 0.05 * db.region.width();
    std::vector<double> gx(nVars), gy(nVars);
    waWirelengthGrad(view, gamma, gamma, gx, gy);

    // Probe a handful of variables; each probe costs a full evaluation.
    const double h = 1e-6 * db.region.width();
    std::vector<double> dumpX(nVars), dumpY(nVars);
    std::mt19937_64 rng(seed);
    for (int probe = 0; probe < 6; ++probe) {
      const std::size_t v = rng() % nVars;
      const double x0 = x[v];
      x[v] = x0 + h;
      const double fPlus = waWirelengthGrad(view, gamma, gamma, dumpX, dumpY);
      x[v] = x0 - h;
      const double fMinus = waWirelengthGrad(view, gamma, gamma, dumpX, dumpY);
      x[v] = x0;
      const double fd = (fPlus - fMinus) / (2.0 * h);
      EXPECT_NEAR(gx[v], fd, 1e-4 * std::max(1.0, std::abs(fd)))
          << "seed " << seed << " var " << v;

      const double y0 = y[v];
      y[v] = y0 + h;
      const double gPlus = waWirelengthGrad(view, gamma, gamma, dumpX, dumpY);
      y[v] = y0 - h;
      const double gMinus = waWirelengthGrad(view, gamma, gamma, dumpX, dumpY);
      y[v] = y0;
      const double fdY = (gPlus - gMinus) / (2.0 * h);
      EXPECT_NEAR(gy[v], fdY, 1e-4 * std::max(1.0, std::abs(fdY)))
          << "seed " << seed << " var " << v;
    }
  }
}

TEST(WirelengthProperties, EvaluatorBitIdenticalToFreeFunctions) {
  GenSpec spec;
  spec.name = "weval";
  spec.numCells = 200;
  spec.seed = 704;
  const PlacementDB db = generateCircuit(spec);
  const auto movables = db.movable();
  const std::size_t nVars = movables.size();
  std::vector<std::int32_t> objToVar(db.objects.size(), -1);
  std::vector<double> x(nVars), y(nVars);
  for (std::size_t v = 0; v < nVars; ++v) {
    const auto obj = static_cast<std::size_t>(movables[v]);
    objToVar[obj] = static_cast<std::int32_t>(v);
    const Point c = db.objects[obj].center();
    x[v] = c.x;
    y[v] = c.y;
  }
  const VarView view{&db, objToVar, x, y};
  const double gamma = 1.7;
  std::vector<double> gxRef(nVars), gyRef(nVars), gxPar(nVars), gyPar(nVars);
  const double wlRef = waWirelengthGrad(view, gamma, gamma, gxRef, gyRef);
  const double hpwlRef = hpwl(view);

  WlEvaluator eval(db, objToVar, nVars);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const double wl = eval.waGrad(view, gamma, gamma, gxPar, gyPar, p);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wl),
              std::bit_cast<std::uint64_t>(wlRef));
    for (std::size_t v = 0; v < nVars; ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gxPar[v]),
                std::bit_cast<std::uint64_t>(gxRef[v]))
          << "var " << v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gyPar[v]),
                std::bit_cast<std::uint64_t>(gyRef[v]))
          << "var " << v;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.hpwl(view, p)),
              std::bit_cast<std::uint64_t>(hpwlRef));
  }
}

// ---------- BinGrid scatter contract ----------

/// Footprints that reach every clipping branch of the banded scatter, then
/// random overlapping rects so each bin sums many contributions (a changed
/// accumulation order would show in the last bits).
std::vector<Rect> scatterRects(const BinGrid& g, std::uint64_t seed) {
  const Rect& reg = g.region();
  const double dx = g.dx(), dy = g.dy();
  const double w = reg.width(), h = reg.height();
  const double mx = reg.lx + 0.37 * w, my = reg.ly + 0.41 * h;
  std::vector<Rect> rs = {
      // Fully outside, one per side.
      {reg.lx - 5 * dx, my, reg.lx - dx, my + 2 * dy},
      {reg.hx + dx, my, reg.hx + 4 * dx, my + 2 * dy},
      {mx, reg.ly - 6 * dy, mx + 3 * dx, reg.ly - dy},
      {mx, reg.hy + 0.5 * dy, mx + 3 * dx, reg.hy + 2 * dy},
      // Partly outside, one per side.
      {reg.lx - 2.5 * dx, my, reg.lx + 1.5 * dx, my + 3.2 * dy},
      {reg.hx - 1.7 * dx, my, reg.hx + 2 * dx, my + 1.1 * dy},
      {mx, reg.ly - 3.3 * dy, mx + 2.2 * dx, reg.ly + 2.6 * dy},
      {mx, reg.hy - 1.4 * dy, mx + 2.2 * dx, reg.hy + 3 * dy},
      // A macro wider and taller than the region.
      {reg.lx + 0.3 * dx, reg.ly - dy, reg.lx + 0.6 * w, reg.hy + dy},
      // Positive area that clips to zero height (touches the top and the
      // bottom edge from outside).
      {mx, reg.hy, mx + 2 * dx, reg.hy + 3 * dy},
      {mx, reg.ly - 2 * dy, mx + 2 * dx, reg.ly},
  };
  // Edges exactly on every bin row boundary (so on every band boundary at
  // any thread count), an ulp or a hair either side, and x edges on bin
  // columns.
  for (std::size_t k = 0; k <= g.ny(); ++k) {
    const double b = reg.ly + static_cast<double>(k) * dy;
    const double x0 = reg.lx + static_cast<double>(k % g.nx()) * dx;
    rs.push_back({x0, b, x0 + 2 * dx, b + 1.5 * dy});
    rs.push_back({x0 + 0.5 * dx, b - 2 * dy, x0 + dx, b});
    rs.push_back({x0, std::nextafter(b, reg.hy), x0 + dx, b + dy});
    rs.push_back({x0, b - 0.5 * dy, x0 + 3 * dx, std::nextafter(b, reg.ly)});
    rs.push_back({x0, std::nextafter(b, reg.ly), x0 + dx, b + 0.5 * dy});
    rs.push_back({x0 + dx, b - 0.7 * dy, x0 + 2 * dx, b + 1e-10 * dy});
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int k = 0; k < 600; ++k) {
    const double rw = (0.2 + 4.0 * u(rng)) * dx;
    const double rh = (0.2 + 4.0 * u(rng)) * dy;
    const double cx = reg.lx - 2 * dx + u(rng) * (w + 4 * dx);
    const double cy = reg.ly - 2 * dy + u(rng) * (h + 4 * dy);
    rs.push_back({cx - rw / 2, cy - rh / 2, cx + rw / 2, cy + rh / 2});
  }
  return rs;
}

TEST(BinGridProperties, StampAllBitIdenticalToSerialAtEveryThreadCount) {
  for (const std::size_t m : {16u, 128u}) {
    const BinGrid g({-3.0, 5.0, -3.0 + 0.75 * m, 5.0 + 1.25 * m}, m, m);
    const std::vector<Rect> rects = scatterRects(g, 1000 + m);
    std::vector<double> amount(rects.size());
    std::mt19937_64 rng(m);
    std::uniform_real_distribution<double> u(0.5, 2.0);
    for (std::size_t i = 0; i < rects.size(); ++i) {
      amount[i] = rects[i].area() * u(rng);
    }
    auto objFn = [&](std::size_t i, Rect* r, double* a) {
      *r = rects[i];
      *a = amount[i];
    };
    std::vector<std::int32_t> rowSpans(rects.size());
    for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                                std::size_t{65}, rects.size()}) {
      std::vector<double> ref(g.numBins(), 0.0);
      for (std::size_t i = 0; i < n; ++i) g.stamp(rects[i], amount[i], ref);
      for (const int t : {2, 3, 4, 7}) {
        ThreadPool pool(t);
        std::vector<double> got(g.numBins(), 0.0);
        g.stampAll(n, objFn, got, &pool, rowSpans);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << m << "^2 grid, n = " << n << ", " << t << " threads";
      }
    }
  }
  // Rows beyond the 16-bit packed span: stampAll must still match.
  const std::size_t tall = 70000;
  const BinGrid g({0.0, 0.0, 4.0, static_cast<double>(tall)}, 4, tall);
  std::vector<Rect> rects;
  for (std::size_t i = 0; i < 200; ++i) {
    const double y = 65000.0 + 7.3 * static_cast<double>(i);
    rects.push_back({0.5, y, 3.5, y + 1.0 + static_cast<double>(i % 9)});
  }
  std::vector<double> ref(g.numBins(), 0.0), got(g.numBins(), 0.0);
  for (const Rect& r : rects) g.stamp(r, r.area(), ref);
  std::vector<std::int32_t> rowSpans(rects.size());
  ThreadPool pool(4);
  g.stampAll(
      rects.size(),
      [&](std::size_t i, Rect* r, double* a) {
        *r = rects[i];
        *a = rects[i].area();
      },
      got, &pool, rowSpans);
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)),
            0)
      << tall << "-row grid";
}

// ---------- ThreadPool contracts ----------

TEST(ThreadPoolProperties, PartitionsCoverEveryIndexOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10007;  // prime: uneven partitions
  std::vector<int> hits(n, 0);
  pool.parallelFor(
      n,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      },
      1);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolProperties, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(
          1000,
          [&](std::size_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              if (i == 777) throw std::runtime_error("boom");
            }
          },
          1),
      std::runtime_error);
  // The pool must survive the throw and keep serving work.
  std::vector<int> hits(100, 0);
  pool.parallelFor(
      100,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      },
      1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

// The dispatch fast path is lock-free (workers spin on an epoch, the
// caller on a pending count) and falls back to parking on condition
// variables; these cases drive both paths and the hand-over between them.

/// Runs one job of `n` indices that bumps hits[i]; returns false if any
/// partition saw bounds other than the documented [p*n/P, (p+1)*n/P).
bool countHits(ThreadPool& pool, std::size_t n, std::vector<int>& hits) {
  std::atomic<bool> boundsOk{true};
  const auto parts = static_cast<std::size_t>(pool.threads());
  pool.parallelFor(n, [&](std::size_t p, std::size_t b, std::size_t e) {
    if (n >= ThreadPool::kGrain &&
        (b != p * n / parts || e != (p + 1) * n / parts)) {
      boundsOk = false;
    }
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  return boundsOk;
}

TEST(ThreadPoolProperties, BackToBackJobsAroundGrainCoverEveryIndex) {
  ThreadPool pool(4);
  constexpr std::size_t g = ThreadPool::kGrain;
  const std::size_t sizes[] = {g - 1, g, g + 1, 2 * g + 3};
  std::vector<int> hits(2 * g + 3, 0);
  std::vector<int> expected(hits.size(), 0);
  const int jobs = 100000;
  for (int j = 0; j < jobs; ++j) {
    const std::size_t n = sizes[j % 4];
    ASSERT_TRUE(countHits(pool, n, hits)) << "job " << j;
  }
  for (int k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < sizes[k]; ++i) expected[i] += jobs / 4;
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], expected[i]) << "index " << i;
  }
}

TEST(ThreadPoolProperties, ParkedWorkersWakeForResultsAndExceptions) {
  ThreadPool pool(4);
  const std::size_t n = 3 * ThreadPool::kGrain;
  std::vector<int> hits(n, 0);
  ASSERT_TRUE(countHits(pool, n, hits));
  // Idle long enough that every worker exhausts its spin and parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(countHits(pool, n, hits));
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 2) << "index " << i;

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_THROW(pool.parallelFor(n,
                                [&](std::size_t p, std::size_t, std::size_t) {
                                  if (p == 3) throw std::runtime_error("late");
                                }),
               std::runtime_error);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(countHits(pool, n, hits));
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 3) << "index " << i;
}

TEST(ThreadPoolProperties, TwoPoolsDrivenConcurrently) {
  const std::size_t n = 5 * ThreadPool::kGrain + 7;
  const int jobs = 5000;
  std::vector<int> hitsA(n, 0), hitsB(n, 0);
  bool okA = true, okB = true;
  auto drive = [&](int threads, std::vector<int>& hits, bool& ok) {
    ThreadPool pool(threads);
    for (int j = 0; j < jobs && ok; ++j) ok = countHits(pool, n, hits);
  };
  std::thread a(drive, 2, std::ref(hitsA), std::ref(okA));
  std::thread b(drive, 3, std::ref(hitsB), std::ref(okB));
  a.join();
  b.join();
  EXPECT_TRUE(okA);
  EXPECT_TRUE(okB);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hitsA[i], jobs) << "index " << i;
    ASSERT_EQ(hitsB[i], jobs) << "index " << i;
  }
}

TEST(ThreadPoolProperties, DestructionRightAfterAJobAndAfterIdling) {
  const std::size_t n = 2 * ThreadPool::kGrain;
  std::vector<int> hits(n, 0);
  int jobs = 0;
  for (int round = 0; round < 50; ++round) {  // workers still spinning
    ThreadPool pool(4);
    ASSERT_TRUE(countHits(pool, n, hits));
    ++jobs;
  }
  {  // workers parked
    ThreadPool pool(4);
    ASSERT_TRUE(countHits(pool, n, hits));
    ++jobs;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  { ThreadPool never(4); }  // workers never woken
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], jobs) << "index " << i;
}

}  // namespace
}  // namespace ep
