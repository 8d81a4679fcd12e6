// Refactor-parity suite (ctest label: parity).
//
// The flat SoA core (PlacementView) replaced the per-consumer CSR builds
// and per-run geometry copies. This suite pins the refactor to the
// pre-refactor behavior:
//
//  * the three committed mGP goldens reproduce EXACTLY (bit-for-bit at the
//    metric level, not within the cross-platform tolerance the golden
//    suite uses) at 1 and at 4 threads, with bit-identical positions
//    across the two thread counts;
//  * the view's CSRs agree with a naive per-net rebuild from the AoS nets;
//  * the movable remap round-trips;
//  * the scratch arena reuses buffers without growth once warmed up (the
//    Poisson solver, and ElectroDensity's update/overflow on the pool), and
//    a second GlobalPlacer run on the same view allocates nothing new
//    (cGP after mGP reuses mGP's arena leases).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "density/electro.h"
#include "eplace/global_placer.h"
#include "fft/poisson.h"
#include "gen/generator.h"
#include "model/netlist.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/parallel.h"

namespace ep {
namespace {

#ifndef EP_GOLDEN_DIR
#error "EP_GOLDEN_DIR must point at tests/goldens (set in CMakeLists.txt)"
#endif

struct GoldenCase {
  std::uint64_t seed;
  std::size_t cells;
};

// Must stay in lockstep with kCases in test_golden.cpp — the parity suite
// replays the exact committed scenarios.
constexpr GoldenCase kCases[] = {{31, 400}, {32, 500}, {33, 600}};

struct RunOutcome {
  std::vector<double> positions;
  double hpwl = 0.0;
  double overflow = 0.0;
  int iterations = 0;
};

std::vector<double> movablePositions(const PlacementDB& db) {
  std::vector<double> v;
  for (auto i : db.movable()) {
    const Point c = db.objects[static_cast<std::size_t>(i)].center();
    v.push_back(c.x);
    v.push_back(c.y);
  }
  return v;
}

void expectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "coordinate " << i << ": " << a[i] << " vs " << b[i];
  }
}

RunOutcome runMgp(const GoldenCase& c, int threads) {
  RuntimeContext ctx(threads);
  GenSpec spec;
  spec.name = "golden";  // same generator stream as the golden suite
  spec.numCells = c.cells;
  spec.seed = c.seed;
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db, ctx);
  GlobalPlacer gp(db, db.movable(), GpConfig{}, ctx);
  gp.makeFillersFromDb();
  const GpResult res = gp.run();
  EXPECT_TRUE(res.status.ok()) << res.status.toString();
  return {movablePositions(db), res.finalHpwl, res.finalOverflow,
          res.iterations};
}

/// Flat one-object JSON extractor (same format test_golden.cpp writes).
bool jsonNumber(const std::string& text, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

class GoldenParity : public ::testing::TestWithParam<int> {};

// Positions bit-identical across thread counts, and the metrics equal the
// committed goldens exactly: %.17g round-trips doubles, so on the platform
// that recorded the goldens any difference at all is a refactor regression.
TEST_P(GoldenParity, BitIdenticalToCommittedGolden) {
  const GoldenCase& c = kCases[GetParam()];
  const RunOutcome t1 = runMgp(c, 1);
  const RunOutcome t4 = runMgp(c, 4);

  expectBitIdentical(t1.positions, t4.positions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t1.hpwl),
            std::bit_cast<std::uint64_t>(t4.hpwl));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t1.overflow),
            std::bit_cast<std::uint64_t>(t4.overflow));
  EXPECT_EQ(t1.iterations, t4.iterations);

  const std::string path = std::string(EP_GOLDEN_DIR) + "/mgp_seed" +
                           std::to_string(c.seed) + ".json";
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  double goldHpwl = 0.0, goldOverflow = 0.0, goldIters = 0.0;
  ASSERT_TRUE(jsonNumber(text, "hpwl", &goldHpwl));
  ASSERT_TRUE(jsonNumber(text, "overflow", &goldOverflow));
  ASSERT_TRUE(jsonNumber(text, "iterations", &goldIters));

  EXPECT_EQ(std::bit_cast<std::uint64_t>(t1.hpwl),
            std::bit_cast<std::uint64_t>(goldHpwl))
      << "seed " << c.seed << ": HPWL " << t1.hpwl << " vs golden "
      << goldHpwl;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t1.overflow),
            std::bit_cast<std::uint64_t>(goldOverflow))
      << "seed " << c.seed << ": overflow " << t1.overflow << " vs golden "
      << goldOverflow;
  EXPECT_EQ(t1.iterations, static_cast<int>(goldIters));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenParity, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// PlacementView structure tests
// ---------------------------------------------------------------------------

PlacementDB testCircuit(std::uint64_t seed = 7, std::size_t cells = 250) {
  GenSpec spec;
  spec.name = "parity";
  spec.numCells = cells;
  spec.numMovableMacros = 2;
  spec.seed = seed;
  return generateCircuit(spec);
}

TEST(PlacementViewCsr, MatchesNaiveRebuild) {
  PlacementDB db = testCircuit();
  const PlacementView& pv = db.view();
  ASSERT_TRUE(pv.built());

  // Naive rebuild straight from the AoS nets.
  std::vector<std::int32_t> netPinStart{0}, pinObj, pinNet;
  std::vector<double> pinOx, pinOy;
  std::vector<std::vector<std::int32_t>> objPins(db.objects.size());
  std::vector<std::vector<std::int32_t>> objNets(db.objects.size());
  std::int32_t pid = 0;
  for (std::size_t n = 0; n < db.nets.size(); ++n) {
    for (const auto& p : db.nets[n].pins) {
      pinObj.push_back(p.obj);
      pinOx.push_back(p.ox);
      pinOy.push_back(p.oy);
      pinNet.push_back(static_cast<std::int32_t>(n));
      objPins[static_cast<std::size_t>(p.obj)].push_back(pid++);
      objNets[static_cast<std::size_t>(p.obj)].push_back(
          static_cast<std::int32_t>(n));
    }
    netPinStart.push_back(pid);
  }

  ASSERT_EQ(pv.numPins(), pinObj.size());
  ASSERT_EQ(pv.numNets(), db.nets.size());
  for (std::size_t i = 0; i < netPinStart.size(); ++i) {
    EXPECT_EQ(pv.netPinStart()[i], netPinStart[i]);
  }
  for (std::size_t i = 0; i < pinObj.size(); ++i) {
    EXPECT_EQ(pv.pinObj()[i], pinObj[i]);
    EXPECT_EQ(pv.pinNet()[i], pinNet[i]);
    EXPECT_EQ(pv.pinOx()[i], pinOx[i]);
    EXPECT_EQ(pv.pinOy()[i], pinOy[i]);
  }
  for (std::size_t o = 0; o < db.objects.size(); ++o) {
    const auto b = static_cast<std::size_t>(pv.objPinStart()[o]);
    const auto e = static_cast<std::size_t>(pv.objPinStart()[o + 1]);
    ASSERT_EQ(e - b, objPins[o].size()) << "object " << o;
    for (std::size_t k = 0; k < objPins[o].size(); ++k) {
      EXPECT_EQ(pv.objPinIds()[b + k], objPins[o][k]);
    }
    const auto nets = pv.netsOf(static_cast<std::int32_t>(o));
    ASSERT_EQ(nets.size(), objNets[o].size()) << "object " << o;
    for (std::size_t k = 0; k < objNets[o].size(); ++k) {
      EXPECT_EQ(nets[k], objNets[o][k]);
    }
  }

  // Geometry mirrors.
  for (std::size_t o = 0; o < db.objects.size(); ++o) {
    const auto& obj = db.objects[o];
    EXPECT_EQ(pv.w()[o], obj.w);
    EXPECT_EQ(pv.h()[o], obj.h);
    EXPECT_EQ(pv.area()[o], obj.area());
    EXPECT_EQ(pv.lx()[o], obj.lx);
    EXPECT_EQ(pv.ly()[o], obj.ly);
    EXPECT_EQ(pv.kind()[o], static_cast<std::uint8_t>(obj.kind));
    EXPECT_EQ(pv.fixedMask()[o] != 0, obj.fixed);
  }
}

TEST(PlacementViewCsr, RemapRoundTrip) {
  PlacementDB db = testCircuit();
  const PlacementView& pv = db.view();
  ASSERT_EQ(pv.numMovable(), db.movable().size());

  for (std::size_t v = 0; v < pv.numMovable(); ++v) {
    const auto obj = pv.movable()[v];
    EXPECT_EQ(obj, db.movable()[v]);
    EXPECT_EQ(pv.objToMovable()[static_cast<std::size_t>(obj)],
              static_cast<std::int32_t>(v));
  }
  for (std::size_t o = 0; o < db.objects.size(); ++o) {
    const auto slot = pv.objToMovable()[o];
    if (db.objects[o].fixed) {
      EXPECT_EQ(slot, -1);
    } else {
      ASSERT_GE(slot, 0);
      EXPECT_EQ(pv.movable()[static_cast<std::size_t>(slot)],
                static_cast<std::int32_t>(o));
    }
  }
}

TEST(PlacementViewCsr, PositionSyncRoundTrip) {
  PlacementDB db = testCircuit();
  PlacementView& pv = db.view();
  for (auto i : db.movable()) {
    auto& o = db.objects[static_cast<std::size_t>(i)];
    o.lx += 1.25;
    o.ly -= 0.5;
  }
  pv.syncPositionsFromDb(db);
  for (std::size_t o = 0; o < db.objects.size(); ++o) {
    EXPECT_EQ(pv.lx()[o], db.objects[o].lx);
    EXPECT_EQ(pv.ly()[o], db.objects[o].ly);
  }
  pv.setPosition(db.movable().front(), 3.0, 4.0);
  pv.pushPositionsToDb(db);
  EXPECT_EQ(db.objects[static_cast<std::size_t>(db.movable().front())].lx,
            3.0);
  EXPECT_EQ(db.objects[static_cast<std::size_t>(db.movable().front())].ly,
            4.0);
}

// ---------------------------------------------------------------------------
// ScratchArena tests
// ---------------------------------------------------------------------------

TEST(ScratchArena, ReusesBuffersWithoutGrowth) {
  ScratchArena arena;
  EXPECT_EQ(arena.growthEvents(), 0);

  auto a = arena.doubles("k.a", 1000);
  auto b = arena.ints("k.b", 500);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(b.size(), 500u);
  const long warm = arena.growthEvents();
  EXPECT_GT(warm, 0);
  EXPECT_EQ(arena.bufferCount(), 2u);

  // Same or smaller requests after warm-up: same storage, zero growth.
  for (int it = 0; it < 10; ++it) {
    auto a2 = arena.doubles("k.a", 1000);
    auto b2 = arena.ints("k.b", it % 2 ? 500 : 100);
    EXPECT_EQ(a2.data(), a.data());
    EXPECT_EQ(b2.data(), b.data());
  }
  EXPECT_EQ(arena.growthEvents(), warm);

  // Outgrowing a key is counted.
  arena.doubles("k.a", 2000);
  EXPECT_GT(arena.growthEvents(), warm);
}

// The spectral Poisson solver leases its plan tables ("fft.<n>.*") and
// per-solve buffers ("fft.pre"/"fft.coeff"/"fft.psi"/"fft.ex"/"fft.ey")
// from the arena. Construction plus the first solve are the warm-up;
// every later solve must be allocation-free as observed by the arena.
TEST(ScratchArena, PoissonSolverSteadyStateNeverGrows) {
  ScratchArena arena;
  const std::size_t nx = 64, ny = 32;
  std::vector<double> rho(nx * ny);
  for (std::size_t b = 0; b < rho.size(); ++b) {
    rho[b] = 0.5 + 0.25 * static_cast<double>(b % 7) -
             0.125 * static_cast<double>(b % 3);
  }
  {
    PoissonSolver solver(nx, ny, 1.0, 1.0, &arena);
    solver.solve(rho, nullptr);
    const long warm = arena.growthEvents();
    EXPECT_GT(warm, 0);
    const std::size_t buffers = arena.bufferCount();
    for (int it = 0; it < 5; ++it) solver.solve(rho, nullptr);
    EXPECT_EQ(arena.growthEvents(), warm)
        << "steady-state solve() grew an arena buffer";
    EXPECT_EQ(arena.bufferCount(), buffers);
  }
  // A successor solver of the same grid size (cGP after mGP) re-leases the
  // exact same keys: zero growth even across solver lifetimes.
  const long warm = arena.growthEvents();
  PoissonSolver next(nx, ny, 1.0, 1.0, &arena);
  next.solve(rho, nullptr);
  EXPECT_EQ(arena.growthEvents(), warm)
      << "same-size successor solver re-allocated instead of re-leasing";
}

// ElectroDensity on the pool: update() and overflow() share the
// "den.rowSpans" scatter scratch (sized by the larger of the two object
// counts after the first update), and the lazy psi synthesis works in
// place. Repeated calls after the warm-up must not grow any buffer.
TEST(ScratchArena, ElectroDensityOnPoolSteadyStateNeverGrows) {
  ScratchArena arena;
  ThreadPool pool(4);
  const std::size_t m = 64, n = 3000, cells = 2000;
  ElectroDensity ed({0, 0, 128, 128}, m, m, 1.0, &arena);
  PlacementDB empty;
  empty.region = {0, 0, 128, 128};
  empty.finalize();
  ed.stampFixed(empty);
  std::vector<double> cx(n), cy(n), w(n, 1.5), h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    cx[i] = 4.0 + static_cast<double>((i * 37) % 120);
    cy[i] = 4.0 + static_cast<double>((i * 53) % 120);
  }
  const ChargeView all{cx, cy, w, h};
  const ChargeView some{std::span<const double>(cx).first(cells),
                        std::span<const double>(cy).first(cells),
                        std::span<const double>(w).first(cells),
                        std::span<const double>(h).first(cells)};
  ed.update(all, &pool);
  (void)ed.overflow(some, &pool);
  (void)ed.energy(&pool);
  const long warm = arena.growthEvents();
  const std::size_t buffers = arena.bufferCount();
  for (int it = 0; it < 5; ++it) {
    cx[static_cast<std::size_t>(it)] += 1.0;
    ed.update(all, &pool);
    (void)ed.overflow(some, &pool);
    (void)ed.overflow(all, &pool);
    (void)ed.energy(&pool);
  }
  EXPECT_EQ(arena.growthEvents(), warm)
      << "steady-state update()/overflow() grew an arena buffer";
  EXPECT_EQ(arena.bufferCount(), buffers);
}

// The Nesterov loop's zero-steady-state-allocation contract, observed via
// the arena: after the first GlobalPlacer run warms the view's arena up, a
// second run over the same view (what cGP does after mGP) must not grow
// any buffer.
TEST(ScratchArena, SecondGpRunReusesFirstRunsBuffers) {
  RuntimeContext ctx(1);
  PlacementDB db = testCircuit(11, 200);
  quadraticInitialPlace(db, ctx);

  GpConfig cfg;
  cfg.maxIterations = 30;
  {
    GlobalPlacer gp(db, db.movable(), cfg, ctx);
    gp.makeFillersFromDb();
    (void)gp.run();
  }
  const long warm = db.view().arena().growthEvents();
  EXPECT_GT(warm, 0);

  {
    GlobalPlacer gp(db, db.movable(), cfg, ctx);
    gp.makeFillersFromDb();
    (void)gp.run();
  }
  EXPECT_EQ(db.view().arena().growthEvents(), warm)
      << "second GP run allocated fresh scratch instead of reusing the "
         "arena warmed by the first run";
}

}  // namespace
}  // namespace ep
