#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

#include "eval/metrics.h"
#include "eval/plot.h"
#include "util/context.h"
#include "wirelength/wl.h"
#include "gen/generator.h"

namespace ep {
namespace {

/// Region 0..64 square, rows of height 1, a few objects added by tests.
PlacementDB frame() {
  PlacementDB db;
  db.region = {0, 0, 64, 64};
  for (int r = 0; r < 64; ++r) {
    db.rows.push_back({0, static_cast<double>(r), 1.0, 1.0, 64});
  }
  return db;
}

std::int32_t addObj(PlacementDB& db, const std::string& name, double w,
                    double h, double lx, double ly, bool fixed = false,
                    ObjKind kind = ObjKind::kStdCell) {
  Object o;
  o.name = name;
  o.w = w;
  o.h = h;
  o.lx = lx;
  o.ly = ly;
  o.fixed = fixed;
  o.kind = kind;
  db.objects.push_back(o);
  return static_cast<std::int32_t>(db.objects.size() - 1);
}

TEST(Metrics, OverflowZeroWhenSpread) {
  auto db = frame();
  for (int i = 0; i < 16; ++i) {
    addObj(db, "c" + std::to_string(i), 2, 1, 4.0 * i, 4.0 * i);
  }
  db.finalize();
  EXPECT_NEAR(densityOverflow(db, 32, 32).overflow, 0.0, 1e-9);
}

TEST(Metrics, OverflowNearOneWhenPiled) {
  auto db = frame();
  for (int i = 0; i < 64; ++i) {
    addObj(db, "c" + std::to_string(i), 2, 1, 31.0, 31.0);
  }
  db.finalize();
  const auto rep = densityOverflow(db, 32, 32);
  EXPECT_GT(rep.overflow, 0.9);
  EXPECT_GT(rep.maxDensity, 10.0);
}

TEST(Metrics, FixedAreaReducesCapacity) {
  auto db = frame();
  // Fixed block covering a quarter of the region.
  addObj(db, "blk", 32, 32, 0, 0, true, ObjKind::kMacro);
  // Movable sitting fully on the block: everything overflows.
  addObj(db, "c", 4, 4, 10, 10);
  db.finalize();
  EXPECT_NEAR(densityOverflow(db, 32, 32).overflow, 1.0, 1e-9);
}

TEST(Metrics, ScaledHpwlEqualsHpwlAtFullDensity) {
  auto db = frame();
  const auto a = addObj(db, "a", 1, 1, 0, 0);
  const auto b = addObj(db, "b", 1, 1, 10, 0);
  db.nets.push_back({"n", {{a, 0, 0}, {b, 0, 0}}, 1.0});
  db.targetDensity = 1.0;
  db.finalize();
  EXPECT_DOUBLE_EQ(scaledHpwl(db), hpwl(db));
}

TEST(Metrics, ScaledHpwlPenalizesOverflowAtLowDensity) {
  auto db = frame();
  std::int32_t first = -1;
  for (int i = 0; i < 32; ++i) {
    const auto id = addObj(db, "c" + std::to_string(i), 2, 1, 31.0, 31.0);
    if (first < 0) first = id;
  }
  const auto far = addObj(db, "far", 2, 1, 4.0, 4.0);
  db.nets.push_back({"n", {{first, 0, 0}, {far, 0, 0}}, 1.0});
  db.targetDensity = 0.5;
  db.finalize();
  ASSERT_GT(hpwl(db), 0.0);
  EXPECT_GT(scaledHpwl(db), hpwl(db));
}

TEST(Metrics, PairwiseOverlapExact) {
  auto db = frame();
  const auto a = addObj(db, "a", 4, 4, 0, 0, false, ObjKind::kMacro);
  const auto b = addObj(db, "b", 4, 4, 2, 2, false, ObjKind::kMacro);
  const auto c = addObj(db, "c", 4, 4, 20, 20, false, ObjKind::kMacro);
  db.finalize();
  const std::vector<std::int32_t> idx{a, b, c};
  EXPECT_DOUBLE_EQ(pairwiseOverlapArea(db, idx), 4.0);
}

TEST(Metrics, GridOverlapTracksPiling) {
  auto db = frame();
  for (int i = 0; i < 8; ++i) addObj(db, "c" + std::to_string(i), 4, 4, 30, 30);
  db.finalize();
  // 8 stacked 16-area cells: ~7x16 of overlap beyond the first layer.
  const double o = gridOverlapArea(db, false, 64, 64);
  EXPECT_NEAR(o, 7.0 * 16.0, 8.0);
  // Spread them: no overlap.
  for (int i = 0; i < 8; ++i) {
    db.objects[static_cast<std::size_t>(i)].lx = 8.0 * i;
    db.objects[static_cast<std::size_t>(i)].ly = static_cast<double>((8 * i) % 56);
  }
  EXPECT_NEAR(gridOverlapArea(db, false, 64, 64), 0.0, 1e-9);
}

TEST(Metrics, MacroCellCoverArea) {
  auto db = frame();
  addObj(db, "m", 8, 8, 0, 0, false, ObjKind::kMacro);
  addObj(db, "c1", 2, 1, 1, 1);             // fully covered
  addObj(db, "c2", 2, 1, 7, 0);             // half covered
  addObj(db, "c3", 2, 1, 40, 40);           // clear
  db.finalize();
  EXPECT_NEAR(macroCellCoverArea(db), 2.0 + 1.0, 1e-9);
}

TEST(Legality, AcceptsLegalLayout) {
  auto db = frame();
  addObj(db, "a", 2, 1, 0, 0);
  addObj(db, "b", 3, 1, 2, 0);  // abutting is legal
  addObj(db, "c", 2, 1, 0, 1);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_TRUE(rep.legal) << rep.firstIssue;
}

TEST(Legality, DetectsOverlap) {
  auto db = frame();
  addObj(db, "a", 4, 1, 0, 0);
  addObj(db, "b", 4, 1, 2, 0);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.overlaps, 0);
}

TEST(Legality, DetectsOffRow) {
  auto db = frame();
  addObj(db, "a", 2, 1, 0, 0.5);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.offRow, 0);
}

TEST(Legality, DetectsOffSite) {
  auto db = frame();
  addObj(db, "a", 2, 1, 0.5, 0.0);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.offSite, 0);
}

TEST(Legality, DetectsOutOfRegion) {
  auto db = frame();
  addObj(db, "a", 2, 1, 63, 0);  // sticks out on the right
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.outOfRegion, 0);
}

TEST(Legality, DetectsMovableFixedOverlap) {
  auto db = frame();
  addObj(db, "blk", 8, 8, 8, 8, true, ObjKind::kMacro);
  addObj(db, "a", 2, 1, 9, 9);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.overlaps, 0);
}

TEST(Legality, CountsEveryStackedPairAndNamesTheFirst) {
  // n cells on one point, each on a row and a site: every pair overlaps,
  // the count is exact, and the note names the first pair in sweep order.
  auto db = frame();
  constexpr std::int64_t n = 300;
  for (std::int64_t i = 0; i < n; ++i) {
    addObj(db, "c" + std::to_string(i), 2, 1, 10, 10);
  }
  db.finalize();
  const auto rep = checkLegality(db);
  static_assert(std::is_same_v<decltype(rep.overlaps), std::int64_t>);
  EXPECT_FALSE(rep.legal);
  EXPECT_EQ(rep.overlaps, n * (n - 1) / 2);
  EXPECT_EQ(rep.outOfRegion + rep.offRow + rep.offSite, 0);
  EXPECT_EQ(rep.firstIssue, "objects c0 and c1 overlap");
}

TEST(Legality, IgnoresFixedFixedOverlap) {
  auto db = frame();
  addObj(db, "b1", 8, 8, 8, 8, true, ObjKind::kMacro);
  addObj(db, "b2", 8, 8, 10, 10, true, ObjKind::kMacro);
  db.finalize();
  const auto rep = checkLegality(db);
  EXPECT_EQ(rep.overlaps, 0);
}

TEST(Plot, ScalarMapWritesPpmWithCorrectDims) {
  RuntimeContext ctx;
  const std::size_t nx = 8, ny = 4;
  std::vector<double> map(nx * ny);
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = static_cast<double>(i);
  }
  const std::string path = ::testing::TempDir() + "/scalar.ppm";
  ASSERT_TRUE(plotScalarMap(map, nx, ny, path, ctx, 3));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxv = 0;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 24);  // nx * scale
  EXPECT_EQ(h, 12);  // ny * scale
  EXPECT_EQ(maxv, 255);
}

TEST(Plot, ScalarMapRejectsBadDims) {
  RuntimeContext ctx;
  std::vector<double> map(10);
  EXPECT_FALSE(plotScalarMap(map, 3, 4, ::testing::TempDir() + "/x.ppm", ctx));
  EXPECT_FALSE(plotScalarMap({}, 0, 0, ::testing::TempDir() + "/y.ppm", ctx));
}

TEST(Plot, ScalarMapHandlesConstantField) {
  RuntimeContext ctx;
  std::vector<double> map(16, 7.0);  // zero range must not divide by zero
  EXPECT_TRUE(
      plotScalarMap(map, 4, 4, ::testing::TempDir() + "/const.ppm", ctx));
}

TEST(Plot, WritesPpm) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 50;
  spec.numMovableMacros = 2;
  const PlacementDB db = generateCircuit(spec);
  const std::string path = ::testing::TempDir() + "/layout.ppm";
  ASSERT_TRUE(plotLayout(db, path, ctx));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
}

}  // namespace
}  // namespace ep
