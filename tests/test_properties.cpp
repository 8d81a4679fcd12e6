// Property-based sweeps (TEST_P) across seeds, sizes and suite specs:
// mathematical invariants that must hold for *every* instance, not just the
// fixtures of the per-module tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baseline/fm.h"
#include "density/electro.h"
#include "fft/poisson.h"
#include "gen/suites.h"
#include "legal/legalize.h"
#include "eval/metrics.h"
#include "opt/nesterov.h"
#include "util/context.h"
#include "util/rng.h"
#include "util/stats.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

// ---------- Poisson solver properties ----------

class PoissonSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoissonSizes, LinearityOfTheSolveOperator) {
  const std::size_t m = GetParam();
  PoissonSolver s(m, m, 1.0, 1.0);
  Rng rng(m);
  std::vector<double> a(m * m), b(m * m), sum(m * m);
  for (std::size_t i = 0; i < m * m; ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = rng.uniform(-1, 1);
    sum[i] = 2.0 * a[i] - 0.5 * b[i];
  }
  std::vector<double> psiA, psiB;
  s.solve(a);
  psiA.assign(s.psi().begin(), s.psi().end());
  s.solve(b);
  psiB.assign(s.psi().begin(), s.psi().end());
  s.solve(sum);
  for (std::size_t i = 0; i < m * m; i += 7) {
    EXPECT_NEAR(s.psi()[i], 2.0 * psiA[i] - 0.5 * psiB[i], 1e-8);
  }
}

TEST_P(PoissonSizes, NeumannBoundaryFieldVanishes) {
  // The normal field component at the outermost bin centers must be small:
  // cos-series synthesis guarantees zero gradient exactly at the wall, and
  // the half-bin offset leaves only a small residual for smooth rho.
  const std::size_t m = GetParam();
  PoissonSolver s(m, m, 1.0, 1.0);
  std::vector<double> rho(m * m);
  for (std::size_t iy = 0; iy < m; ++iy) {
    for (std::size_t ix = 0; ix < m; ++ix) {
      const double x = (ix + 0.5) / m, y = (iy + 0.5) / m;
      rho[iy * m + ix] = std::cos(3.14159265 * x) * std::cos(3.14159265 * y);
    }
  }
  s.solve(rho);
  double interiorMax = 0.0, boundaryMax = 0.0;
  for (std::size_t iy = 0; iy < m; ++iy) {
    boundaryMax = std::max(
        {boundaryMax, std::abs(s.fieldX()[iy * m + 0]),
         std::abs(s.fieldX()[iy * m + (m - 1)])});
    for (std::size_t ix = 0; ix < m; ++ix) {
      interiorMax = std::max(interiorMax, std::abs(s.fieldX()[iy * m + ix]));
    }
  }
  EXPECT_LT(boundaryMax, 0.25 * interiorMax);
}

TEST_P(PoissonSizes, EnergyScalesQuadraticallyWithCharge) {
  const std::size_t m = GetParam();
  ElectroDensity ed({0, 0, double(m), double(m)}, m, m, 1.0);
  PlacementDB empty;
  empty.region = {0, 0, double(m), double(m)};
  empty.finalize();
  ed.stampFixed(empty);
  std::vector<double> cx{m * 0.4, m * 0.6}, cy{m * 0.5, m * 0.5};
  std::vector<double> w1{4, 4}, h1{4, 4};
  ed.update(ChargeView{cx, cy, w1, h1});
  const double e1 = ed.energy();
  // Doubling the charge *at identical footprints* (each charge listed
  // twice) must exactly quadruple the energy: N is quadratic in rho.
  std::vector<double> cx2{m * 0.4, m * 0.6, m * 0.4, m * 0.6};
  std::vector<double> cy2{m * 0.5, m * 0.5, m * 0.5, m * 0.5};
  std::vector<double> w2{4, 4, 4, 4}, h2{4, 4, 4, 4};
  ed.update(ChargeView{cx2, cy2, w2, h2});
  const double e2 = ed.energy();
  EXPECT_NEAR(e2 / e1, 4.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Grids, PoissonSizes,
                         ::testing::Values(32, 64, 128));

// ---------- Wirelength model properties ----------

class WlSeeds : public ::testing::TestWithParam<std::uint64_t> {};

struct RandomNets {
  PlacementDB db;
  std::vector<std::int32_t> objToVar;
  std::vector<double> x, y;

  explicit RandomNets(std::uint64_t seed) {
    Rng rng(seed);
    db.region = {0, 0, 100, 100};
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      Object o;
      o.name = "c" + std::to_string(i);
      o.w = 1;
      o.h = 1;
      db.objects.push_back(o);
      objToVar.push_back(i);
      x.push_back(rng.uniform(0, 100));
      y.push_back(rng.uniform(0, 100));
    }
    for (int e = 0; e < 40; ++e) {
      Net net;
      net.name = "n" + std::to_string(e);
      const int deg = 2 + static_cast<int>(rng.below(5));
      for (int k = 0; k < deg; ++k) {
        net.pins.push_back({static_cast<std::int32_t>(rng.below(n)),
                            rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)});
      }
      db.nets.push_back(net);
    }
    db.finalize();
  }
  [[nodiscard]] VarView view() const { return {&db, objToVar, x, y}; }
};

TEST_P(WlSeeds, WaLowerBoundsLseUpperBoundsHpwl) {
  RandomNets f(GetParam());
  std::vector<double> gx(f.x.size()), gy(f.x.size());
  const double exact = hpwl(f.view());
  const double wa = waWirelengthGrad(f.view(), 2.0, 2.0, gx, gy);
  const double lse = lseWirelengthGrad(f.view(), 2.0, 2.0, gx, gy);
  EXPECT_LE(wa, exact + 1e-9);
  EXPECT_GE(lse, exact - 1e-9);
}

TEST_P(WlSeeds, WaGradientMatchesFdOnRandomNets) {
  RandomNets f(GetParam());
  const double gamma = 1.5;
  std::vector<double> gx(f.x.size()), gy(f.x.size()), tx(f.x.size()),
      ty(f.x.size());
  waWirelengthGrad(f.view(), gamma, gamma, gx, gy);
  Rng rng(GetParam() + 1);
  const double eps = 1e-6;
  for (int trial = 0; trial < 5; ++trial) {
    const auto i = static_cast<std::size_t>(rng.below(f.x.size()));
    const double saved = f.x[i];
    f.x[i] = saved + eps;
    const double plus = waWirelengthGrad(f.view(), gamma, gamma, tx, ty);
    f.x[i] = saved - eps;
    const double minus = waWirelengthGrad(f.view(), gamma, gamma, tx, ty);
    f.x[i] = saved;
    EXPECT_NEAR((plus - minus) / (2 * eps), gx[i], 1e-4);
  }
}

TEST_P(WlSeeds, TranslationInvariance) {
  RandomNets f(GetParam());
  std::vector<double> gx(f.x.size()), gy(f.x.size());
  const double before = waWirelengthGrad(f.view(), 2.0, 2.0, gx, gy);
  const auto gxBefore = gx;
  for (auto& v : f.x) v += 13.5;
  for (auto& v : f.y) v -= 2.25;
  const double after = waWirelengthGrad(f.view(), 2.0, 2.0, gx, gy);
  EXPECT_NEAR(after, before, 1e-6 * before);
  for (std::size_t i = 0; i < gx.size(); ++i) {
    EXPECT_NEAR(gx[i], gxBefore[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- FM partitioner properties ----------

class FmSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmSeeds, InvariantsOnRandomHypergraphs) {
  Rng rng(GetParam());
  FmProblem p;
  const int n = 50 + static_cast<int>(rng.below(50));
  p.areas.resize(static_cast<std::size_t>(n));
  for (auto& a : p.areas) a = rng.uniform(0.5, 4.0);
  const int nets = 2 * n;
  for (int e = 0; e < nets; ++e) {
    std::vector<std::int32_t> net;
    const int deg = 2 + static_cast<int>(rng.below(4));
    for (int k = 0; k < deg; ++k) {
      net.push_back(static_cast<std::int32_t>(rng.below(n)));
    }
    std::sort(net.begin(), net.end());
    net.erase(std::unique(net.begin(), net.end()), net.end());
    if (net.size() >= 2) p.nets.push_back(net);
  }
  p.tolerance = 0.12;
  const FmResult res = fmPartition(p, GetParam() * 7 + 1);
  // Cut never worsens and the reported cut is the true cut.
  EXPECT_LE(res.finalCut, res.initialCut);
  EXPECT_EQ(res.finalCut, cutSize(p, res.side));
  // Balance respected.
  double total = std::accumulate(p.areas.begin(), p.areas.end(), 0.0);
  double a0 = 0.0;
  for (int i = 0; i < n; ++i) {
    if (res.side[static_cast<std::size_t>(i)] == 0) {
      a0 += p.areas[static_cast<std::size_t>(i)];
    }
  }
  EXPECT_NEAR(a0 / total, 0.5, p.tolerance + 4.0 / total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmSeeds,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------- Nesterov vs GD across random quadratics ----------

class OptSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptSeeds, MomentumNeverLosesOnQuadratics) {
  Rng rng(GetParam());
  const std::size_t n = 40;
  std::vector<double> a(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::exp(rng.uniform(0.0, 5.0));  // condition number up to e^5
    c[i] = rng.uniform(-3, 3);
  }
  auto fn = [&](std::span<const double> x, std::span<double> g) {
    double f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - c[i];
      f += 0.5 * a[i] * d * d;
      g[i] = a[i] * d;
    }
    return f;
  };
  auto objective = [&](std::span<const double> x) {
    std::vector<double> g(n);
    return fn(x, g);
  };
  double fN = 0.0, fG = 0.0;
  {
    NesterovOptimizer opt(n, fn);
    std::vector<double> v0(n, 0.0);
    opt.initialize(v0);
    for (int k = 0; k < 150; ++k) opt.step();
    fN = objective(opt.solution());
  }
  {
    NesterovConfig cfg;
    cfg.enableMomentum = false;
    NesterovOptimizer opt(n, fn, cfg);
    std::vector<double> v0(n, 0.0);
    opt.initialize(v0);
    for (int k = 0; k < 150; ++k) opt.step();
    fG = objective(opt.solution());
  }
  EXPECT_LE(fN, fG * 1.5 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptSeeds, ::testing::Values(3, 5, 8, 13, 21));

// ---------- Legalizer sweep across utilizations ----------

class LegalizeUtil : public ::testing::TestWithParam<int> {};

TEST_P(LegalizeUtil, LegalAcrossUtilizations) {
  RuntimeContext ctx;
  const double util = 0.35 + 0.1 * GetParam();  // 0.35 .. 0.85
  GenSpec spec;
  spec.name = "util";
  spec.numCells = 400;
  spec.numFixedMacros = 3;
  spec.utilization = util;
  spec.seed = 900 + static_cast<std::uint64_t>(GetParam());
  PlacementDB db = generateCircuit(spec);
  // Worst-case input: everything piled at the center.
  const Point c = db.region.center();
  for (auto i : db.movable()) {
    db.objects[static_cast<std::size_t>(i)].setCenter(c.x, c.y);
  }
  const LegalizeResult res = legalizeCells(db, ctx);
  EXPECT_TRUE(res.success) << "util " << util;
  const auto rep = checkLegality(db);
  EXPECT_TRUE(rep.legal) << "util " << util << ": " << rep.firstIssue;
}

INSTANTIATE_TEST_SUITE_P(Utils, LegalizeUtil, ::testing::Range(0, 6));

// ---------- Generator sweep over every suite spec ----------

class AllSuites : public ::testing::TestWithParam<int> {};

TEST_P(AllSuites, EveryCircuitIsValidAndSized) {
  std::vector<GenSpec> all;
  for (const auto& s : ispd2005Suite()) all.push_back(s);
  for (const auto& s : ispd2006Suite()) all.push_back(s);
  for (const auto& s : mmsSuite()) all.push_back(s);
  const auto& spec = all[static_cast<std::size_t>(GetParam())];
  // Shrink for speed; structure checks remain meaningful.
  GenSpec small = spec;
  small.numCells = std::min<std::size_t>(spec.numCells, 400);
  small.numMovableMacros = std::min<std::size_t>(spec.numMovableMacros, 6);
  const PlacementDB db = generateCircuit(small);
  EXPECT_TRUE(db.validate().ok()) << spec.name;
  EXPECT_GE(db.freeArea() * db.targetDensity,
            db.totalMovableArea() * 0.99)
      << spec.name << ": movable area exceeds density budget";
  EXPECT_FALSE(db.rows.empty());
}

INSTANTIATE_TEST_SUITE_P(Specs, AllSuites, ::testing::Range(0, 32));

}  // namespace
}  // namespace ep
