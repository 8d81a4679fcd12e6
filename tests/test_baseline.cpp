#include <gtest/gtest.h>

#include "baseline/bell.h"
#include "baseline/fm.h"
#include "baseline/mincut.h"
#include "baseline/quadratic.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "util/context.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

/// Two cliques of 8 vertices joined by a single bridge net: the optimal
/// bisection cuts exactly the bridge.
FmProblem twoCliques() {
  FmProblem p;
  p.areas.assign(16, 1.0);
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < 8; ++i) {
      for (int j = i + 1; j < 8; ++j) {
        p.nets.push_back({static_cast<std::int32_t>(8 * g + i),
                          static_cast<std::int32_t>(8 * g + j)});
      }
    }
  }
  p.nets.push_back({0, 8});  // bridge
  return p;
}

TEST(Fm, FindsObviousBisection) {
  const auto p = twoCliques();
  const FmResult res = fmPartition(p, 1);
  EXPECT_EQ(res.finalCut, 1);
  // Both cliques fully on one side each.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(res.side[0], res.side[i]);
  for (int i = 9; i < 16; ++i) EXPECT_EQ(res.side[8], res.side[i]);
  EXPECT_NE(res.side[0], res.side[8]);
}

TEST(Fm, NeverWorsensInitialCut) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    FmProblem p;
    const int n = 60;
    p.areas.assign(n, 1.0);
    for (int e = 0; e < 120; ++e) {
      std::vector<std::int32_t> net;
      const int deg = 2 + static_cast<int>(rng.below(3));
      for (int k = 0; k < deg; ++k) {
        net.push_back(static_cast<std::int32_t>(rng.below(n)));
      }
      std::sort(net.begin(), net.end());
      net.erase(std::unique(net.begin(), net.end()), net.end());
      if (net.size() >= 2) p.nets.push_back(net);
    }
    const FmResult res = fmPartition(p, 100 + trial);
    EXPECT_LE(res.finalCut, res.initialCut);
  }
}

TEST(Fm, RespectsBalance) {
  FmProblem p;
  const int n = 40;
  p.areas.assign(n, 1.0);
  Rng rng(9);
  for (int e = 0; e < 80; ++e) {
    p.nets.push_back({static_cast<std::int32_t>(rng.below(n)),
                      static_cast<std::int32_t>(rng.below(n))});
  }
  p.targetFraction = 0.5;
  p.tolerance = 0.1;
  const FmResult res = fmPartition(p, 3);
  double a0 = 0.0;
  for (int i = 0; i < n; ++i) a0 += res.side[i] == 0 ? 1.0 : 0.0;
  EXPECT_NEAR(a0 / n, 0.5, 0.1 + 1e-9);
}

TEST(Fm, RespectsLockedVertices) {
  auto p = twoCliques();
  p.locked.assign(16, -1);
  // Force clique 0's vertex to side 1 — FM must keep it there.
  p.locked[3] = 1;
  const FmResult res = fmPartition(p, 1);
  EXPECT_EQ(res.side[3], 1);
}

TEST(Fm, UnevenTargetFraction) {
  FmProblem p;
  p.areas.assign(30, 1.0);
  Rng rng(13);
  for (int e = 0; e < 60; ++e) {
    p.nets.push_back({static_cast<std::int32_t>(rng.below(30)),
                      static_cast<std::int32_t>(rng.below(30))});
  }
  p.targetFraction = 0.25;
  p.tolerance = 0.08;
  const FmResult res = fmPartition(p, 7);
  double a0 = 0.0;
  for (int i = 0; i < 30; ++i) a0 += res.side[i] == 0 ? 1.0 : 0.0;
  EXPECT_NEAR(a0 / 30.0, 0.25, 0.08 + 1e-9);
}

TEST(Fm, CutSizeIndependentCheck) {
  const auto p = twoCliques();
  std::vector<std::int8_t> side(16, 0);
  for (int i = 8; i < 16; ++i) side[i] = 1;
  EXPECT_EQ(cutSize(p, side), 1);
  side[0] = 1;
  EXPECT_EQ(cutSize(p, side), 7);  // vertex 0's clique edges now cut
}

PlacementDB testCircuit(std::uint64_t seed, std::size_t cells = 600,
                        std::size_t macros = 0) {
  GenSpec spec;
  spec.name = "bl";
  spec.numCells = cells;
  spec.numMovableMacros = macros;
  spec.seed = seed;
  return generateCircuit(spec);
}

TEST(MinCut, PlacesEverythingInRegion) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(21);
  const MinCutResult res = minCutPlace(db, ctx);
  EXPECT_GT(res.partitions, 10);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.contains(o.center())) << o.name;
  }
}

TEST(MinCut, BeatsRandomPlacement) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(23);
  // Random placement HPWL as the reference.
  Rng rng(1);
  for (auto i : db.movable()) {
    auto& o = db.objects[static_cast<std::size_t>(i)];
    o.setCenter(rng.uniform(db.region.lx + o.w, db.region.hx - o.w),
                rng.uniform(db.region.ly + o.h, db.region.hy - o.h));
  }
  const double randomHpwl = hpwl(db);
  minCutPlace(db, ctx);
  EXPECT_LT(hpwl(db), 0.8 * randomHpwl);
}

TEST(MinCut, SpreadsDensity) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(25);
  minCutPlace(db, ctx);
  // Leaf-granular placement: overflow well below the piled-up extreme.
  EXPECT_LT(densityOverflow(db).overflow, 0.6);
}

TEST(Quadratic, ReachesOverflowTarget) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(27);
  QuadraticPlaceConfig cfg;
  cfg.targetOverflow = 0.15;
  const auto res = quadraticPlace(db, ctx, cfg);
  EXPECT_LE(res.finalOverflow, 0.25);  // close to target (spread-limited)
  EXPECT_GT(res.hpwl, 0.0);
}

TEST(Quadratic, StaysInRegion) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(29, 400, 3);
  quadraticPlace(db, ctx);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_GE(o.lx, db.region.lx - 1e-9);
    EXPECT_LE(o.lx + o.w, db.region.hx + 1e-9);
    EXPECT_GE(o.ly, db.region.ly - 1e-9);
    EXPECT_LE(o.ly + o.h, db.region.hy + 1e-9);
  }
}

TEST(Quadratic, SpreadingReducesOverflowMonotonically) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(31);
  QuadraticPlaceConfig one;
  one.maxIterations = 2;
  one.targetOverflow = 0.0;  // force full run
  PlacementDB db1 = db;
  const auto early = quadraticPlace(db1, ctx, one);
  QuadraticPlaceConfig many = one;
  many.maxIterations = 20;
  PlacementDB db2 = db;
  const auto late = quadraticPlace(db2, ctx, many);
  EXPECT_LT(late.finalOverflow, early.finalOverflow);
}

TEST(Bell, ReducesOverflow) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(33, 400);
  const double before = densityOverflow(db).overflow;
  (void)before;
  BellPlaceConfig cfg;
  cfg.maxOuterIterations = 10;
  cfg.cgIterationsPerOuter = 40;
  const auto res = bellPlace(db, ctx, cfg);
  EXPECT_LT(res.finalOverflow, 0.45);
  EXPECT_GT(res.gradEvals, 0);
}

TEST(Bell, LineSearchDominatesRuntime) {
  // Sec. V-A: line search is the bottleneck of CG-based placers.
  RuntimeContext ctx;
  PlacementDB db = testCircuit(35, 500);
  BellPlaceConfig cfg;
  cfg.maxOuterIterations = 4;
  cfg.cgIterationsPerOuter = 30;
  const auto res = bellPlace(db, ctx, cfg);
  EXPECT_GT(res.lineSearchSeconds, 0.3 * res.optimizerSeconds);
}

TEST(Bell, NesterovModeAlsoSpreads) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(39, 400);
  BellPlaceConfig cfg;
  cfg.useNesterov = true;
  cfg.maxOuterIterations = 10;
  cfg.cgIterationsPerOuter = 40;
  const auto res = bellPlace(db, ctx, cfg);
  EXPECT_LT(res.finalOverflow, 0.45);
  EXPECT_DOUBLE_EQ(res.lineSearchSeconds, 0.0);  // no line search
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.expanded(1e-6).contains(o.rect())) << o.name;
  }
}

TEST(Bell, StaysInRegion) {
  RuntimeContext ctx;
  PlacementDB db = testCircuit(37, 300);
  bellPlace(db, ctx);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.expanded(1e-6).contains(o.rect())) << o.name;
  }
}

}  // namespace
}  // namespace ep
