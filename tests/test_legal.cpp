#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/generator.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

/// A mixed-size instance with overlapping macros near their natural spots —
/// the state mLG expects after mGP.
PlacementDB mlgFixture(std::uint64_t seed) {
  GenSpec spec;
  spec.name = "mlgfix";
  spec.numCells = 400;
  spec.numMovableMacros = 8;
  spec.macroAreaFraction = 0.35;
  spec.utilization = 0.55;
  spec.seed = seed;
  PlacementDB db = generateCircuit(spec);
  // Push the macros toward the center so several overlap.
  Rng rng(seed + 1);
  for (auto i : db.movable()) {
    auto& o = db.objects[static_cast<std::size_t>(i)];
    if (o.kind != ObjKind::kMacro) continue;
    const Point c = db.region.center();
    o.setCenter(c.x + rng.uniform(-6, 6), c.y + rng.uniform(-6, 6));
  }
  return db;
}

std::vector<std::int32_t> macroIds(const PlacementDB& db) {
  std::vector<std::int32_t> ids;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (!db.objects[i].fixed && db.objects[i].kind == ObjKind::kMacro) {
      ids.push_back(static_cast<std::int32_t>(i));
    }
  }
  return ids;
}

TEST(Mlg, RemovesMacroOverlap) {
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(3);
  const auto ids = macroIds(db);
  ASSERT_GT(pairwiseOverlapArea(db, ids), 0.0);
  const MlgResult res = legalizeMacros(db, ctx);
  EXPECT_TRUE(res.legal);
  EXPECT_NEAR(pairwiseOverlapArea(db, ids), 0.0, 1e-9);
  EXPECT_GT(res.overlapBefore, 0.0);
  EXPECT_NEAR(res.overlapAfter, 0.0, 1e-9);
}

TEST(Mlg, MacrosStayInRegionAndOnGrid) {
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(5);
  legalizeMacros(db, ctx);
  for (auto i : macroIds(db)) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.contains(o.rect())) << o.name;
    // Snapped to the site/row lattice.
    EXPECT_NEAR(o.lx, std::round(o.lx), 1e-9);
    EXPECT_NEAR(o.ly, std::round(o.ly), 1e-9);
  }
}

TEST(Mlg, OnlyLocalShifts) {
  // The paper's premise: mGP leaves macros near-legal, so mLG makes small
  // moves. Verify displacement stays well under the region size.
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(7);
  std::vector<Point> before;
  for (auto i : macroIds(db)) {
    before.push_back(db.objects[static_cast<std::size_t>(i)].center());
  }
  legalizeMacros(db, ctx);
  std::size_t k = 0;
  double sum = 0.0;
  for (auto i : macroIds(db)) {
    const Point after = db.objects[static_cast<std::size_t>(i)].center();
    sum += (after - before[k++]).norm();
  }
  const double mean = sum / static_cast<double>(k);
  EXPECT_LT(mean, 0.4 * db.region.width());
}

TEST(Mlg, DoesNotTouchCells) {
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(9);
  std::vector<double> cellX;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (o.kind == ObjKind::kStdCell) cellX.push_back(o.lx);
  }
  legalizeMacros(db, ctx);
  std::size_t k = 0;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (o.kind == ObjKind::kStdCell) {
      EXPECT_DOUBLE_EQ(o.lx, cellX[k++]);
    }
  }
}

TEST(Mlg, Deterministic) {
  RuntimeContext ctx;
  PlacementDB a = mlgFixture(11);
  PlacementDB b = mlgFixture(11);
  legalizeMacros(a, ctx);
  legalizeMacros(b, ctx);
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objects[i].lx, b.objects[i].lx);
    EXPECT_DOUBLE_EQ(a.objects[i].ly, b.objects[i].ly);
  }
}

TEST(Mlg, RotationExtensionStaysLegal) {
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(21);
  MlgConfig cfg;
  cfg.allowRotation = true;
  cfg.allowFlipping = true;
  const MlgResult res = legalizeMacros(db, ctx, cfg);
  EXPECT_TRUE(res.legal);
  EXPECT_NEAR(pairwiseOverlapArea(db, macroIds(db)), 0.0, 1e-9);
  for (auto i : macroIds(db)) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.contains(o.rect())) << o.name;
  }
}

TEST(Mlg, RotationPreservesMacroArea) {
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(23);
  std::vector<double> areas;
  for (auto i : macroIds(db)) {
    areas.push_back(db.objects[static_cast<std::size_t>(i)].area());
  }
  MlgConfig cfg;
  cfg.allowRotation = true;
  cfg.reorientProb = 0.5;
  legalizeMacros(db, ctx, cfg);
  std::size_t k = 0;
  for (auto i : macroIds(db)) {
    EXPECT_NEAR(db.objects[static_cast<std::size_t>(i)].area(), areas[k++],
                1e-9);
  }
}

TEST(Mlg, RotationKeepsHpwlBookkeepingConsistent) {
  // The annealer tracks W incrementally across rotations (which transform
  // pin offsets); the final recomputed HPWL must match a fresh evaluation.
  RuntimeContext ctx;
  PlacementDB db = mlgFixture(25);
  MlgConfig cfg;
  cfg.allowRotation = true;
  cfg.allowFlipping = true;
  const MlgResult res = legalizeMacros(db, ctx, cfg);
  EXPECT_NEAR(res.hpwlAfter, hpwl(db), 1e-6 * res.hpwlAfter);
}

TEST(Mlg, NoMacrosIsTrivialSuccess) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 100;
  PlacementDB db = generateCircuit(spec);
  const MlgResult res = legalizeMacros(db, ctx);
  EXPECT_TRUE(res.legal);
  EXPECT_EQ(res.outerIterations, 0);
}

PlacementDB legalizeFixture(std::uint64_t seed, std::size_t cells = 500) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.name = "legfix";
  spec.numCells = cells;
  spec.numFixedMacros = 3;
  spec.utilization = 0.6;
  spec.seed = seed;
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db, ctx);  // overlapping but sane start
  return db;
}

TEST(Legalize, ProducesLegalLayout) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(2);
  const LegalizeResult res = legalizeCells(db, ctx);
  EXPECT_TRUE(res.success);
  const auto rep = checkLegality(db);
  EXPECT_TRUE(rep.legal) << rep.firstIssue;
}

TEST(Legalize, ReportsDisplacement) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(4);
  const LegalizeResult res = legalizeCells(db, ctx);
  EXPECT_GT(res.avgDisplacement, 0.0);
  EXPECT_GE(res.maxDisplacement, res.avgDisplacement);
}

TEST(Legalize, RespectsFixedObstacles) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(6);
  legalizeCells(db, ctx);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    for (const auto& f : db.objects) {
      if (!f.fixed) continue;
      EXPECT_LT(o.rect().overlapArea(f.rect()), 1e-9)
          << o.name << " overlaps " << f.name;
    }
  }
}

TEST(Legalize, NearlyLegalInputMovesLittle) {
  // A layout that is already legal must barely move.
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(8, 200);
  legalizeCells(db, ctx);
  const double h1 = hpwl(db);
  const LegalizeResult res2 = legalizeCells(db, ctx);
  EXPECT_LT(res2.avgDisplacement, 1.0);
  EXPECT_NEAR(hpwl(db), h1, 0.05 * h1);
}

TEST(Detail, ImprovesOrKeepsHpwlAndStaysLegal) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(10);
  legalizeCells(db, ctx);
  ASSERT_TRUE(checkLegality(db).legal);
  const DetailResult res = detailPlace(db, ctx);
  EXPECT_LE(res.hpwlAfter, res.hpwlBefore + 1e-9);
  const auto rep = checkLegality(db);
  EXPECT_TRUE(rep.legal) << rep.firstIssue;
}

TEST(Detail, ActuallyFindsImprovements) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(12);
  legalizeCells(db, ctx);
  const DetailResult res = detailPlace(db, ctx);
  EXPECT_GT(res.reorders + res.swaps, 0);
  EXPECT_LT(res.hpwlAfter, res.hpwlBefore);
}

TEST(Detail, Deterministic) {
  RuntimeContext ctx;
  PlacementDB a = legalizeFixture(14);
  PlacementDB b = legalizeFixture(14);
  legalizeCells(a, ctx);
  legalizeCells(b, ctx);
  detailPlace(a, ctx);
  detailPlace(b, ctx);
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objects[i].lx, b.objects[i].lx);
  }
}

TEST(Detail, SwapFixesObviouslyCrossedPair) {
  // Two same-size cells placed on each other's ideal rows: a single swap
  // recovers the optimum.
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 20, 4};
  for (int r = 0; r < 4; ++r) {
    db.rows.push_back({0, static_cast<double>(r), 1.0, 1.0, 20});
  }
  auto add = [&](const char* name, double lx, double ly, bool fixed) {
    Object o;
    o.name = name;
    o.w = 1;
    o.h = 1;
    o.lx = lx;
    o.ly = ly;
    o.fixed = fixed;
    if (fixed) o.kind = ObjKind::kIo;
    db.objects.push_back(o);
  };
  add("a", 2, 3, false);   // wants to be near padTop... placed at bottom pad
  add("b", 2, 0, false);
  add("padTop", 2, 3, true);
  add("padBot", 2, 0, true);
  // a connects to padBot, b connects to padTop: crossed.
  db.objects[2].lx = 10;  // pads to the right so nets are nondegenerate
  db.objects[3].lx = 10;
  db.nets.push_back({"na", {{0, 0, 0}, {3, 0, 0}}, 1.0});
  db.nets.push_back({"nb", {{1, 0, 0}, {2, 0, 0}}, 1.0});
  db.finalize();
  const double before = hpwl(db);
  const DetailResult res = detailPlace(db, ctx);
  EXPECT_GT(res.swaps, 0);
  EXPECT_LT(res.hpwlAfter, before);
  // After the swap, each cell sits on its pad's row: HPWL = 2 * 8.
  EXPECT_NEAR(res.hpwlAfter, 16.0, 1e-9);
}

TEST(Detail, ZeroPassesIsNoop) {
  RuntimeContext ctx;
  PlacementDB db = legalizeFixture(16, 100);
  legalizeCells(db, ctx);
  DetailConfig cfg;
  cfg.maxPasses = 0;
  const DetailResult res = detailPlace(db, ctx, cfg);
  EXPECT_EQ(res.passes, 0);
  EXPECT_DOUBLE_EQ(res.hpwlAfter, res.hpwlBefore);
}

}  // namespace
}  // namespace ep
