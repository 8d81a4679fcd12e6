#include <gtest/gtest.h>

#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "route/routability.h"
#include "route/rudy.h"
#include "util/context.h"

namespace ep {
namespace {

PlacementDB twoCellNet(double x0, double y0, double x1, double y1) {
  PlacementDB db;
  db.region = {0, 0, 64, 64};
  for (int i = 0; i < 2; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    db.objects.push_back(o);
  }
  db.objects[0].setCenter(x0, y0);
  db.objects[1].setCenter(x1, y1);
  db.nets.push_back({"n", {{0, 0, 0}, {1, 0, 0}}, 1.0});
  db.finalize();
  return db;
}

TEST(Rudy, SingleNetSpreadsOverItsBox) {
  PlacementDB db = twoCellNet(8, 8, 40, 24);
  const CongestionMap m = estimateRudy(db, 32, 32);
  // Demand inside the box, none far outside.
  EXPECT_GT(m.at(24, 16), 0.0);
  EXPECT_DOUBLE_EQ(m.at(60, 60), 0.0);
  // Total demand equals the net's (w + h) wirelength estimate.
  double total = 0.0;
  for (double d : m.demand) total += d * m.grid.binArea();
  EXPECT_NEAR(total, (40.0 - 8.0) + (24.0 - 8.0), 1e-6);
}

TEST(Rudy, DemandIsUniformInsideTheBox) {
  PlacementDB db = twoCellNet(8, 8, 56, 56);
  const CongestionMap m = estimateRudy(db, 32, 32);
  const double a = m.at(16, 16);
  const double b = m.at(40, 40);
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Rudy, CrossingNetsSuperpose) {
  PlacementDB db = twoCellNet(8, 32, 56, 32);  // horizontal band
  // Add a vertical band crossing it.
  Object o;
  o.name = "c2";
  o.w = 1;
  o.h = 1;
  o.setCenter(32, 8);
  db.objects.push_back(o);
  Object o2 = o;
  o2.name = "c3";
  o2.setCenter(32, 56);
  db.objects.push_back(o2);
  db.nets.push_back({"v", {{2, 0, 0}, {3, 0, 0}}, 1.0});
  db.finalize();
  const CongestionMap m = estimateRudy(db, 32, 32);
  // The crossing point carries more demand than either arm alone.
  EXPECT_GT(m.at(32, 32), m.at(16, 32));
  EXPECT_GT(m.at(32, 32), m.at(32, 16));
}

TEST(Rudy, NetWeightScalesDemand) {
  PlacementDB db = twoCellNet(8, 8, 40, 24);
  const CongestionMap m1 = estimateRudy(db, 32, 32);
  db.nets[0].weight = 3.0;
  const CongestionMap m3 = estimateRudy(db, 32, 32);
  EXPECT_NEAR(m3.at(24, 16), 3.0 * m1.at(24, 16), 1e-9);
}

TEST(Rudy, SummaryScoresOrdered) {
  GenSpec spec;
  spec.numCells = 500;
  spec.seed = 8;
  PlacementDB db = generateCircuit(spec);
  const CongestionMap m = estimateRudy(db);
  EXPECT_GE(m.peak, m.hotspot);
  EXPECT_GE(m.hotspot, m.mean);
  EXPECT_GT(m.mean, 0.0);
}

TEST(Routability, RefineReducesHotspotAndStaysLegal) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.name = "route";
  spec.numCells = 800;
  spec.locality = 0.9;  // tight clusters -> congestion hotspots
  spec.seed = 12;
  PlacementDB db = generateCircuit(spec);
  runSupervisedFlow(db, {}, ctx, plainPolicy());
  ASSERT_TRUE(checkLegality(db).legal);

  const RoutabilityResult res = routabilityDrivenRefine(db, ctx);
  EXPECT_TRUE(res.legal);
  // Hotspot must not get worse; some wirelength cost is acceptable.
  EXPECT_LE(res.hotspotAfter, res.hotspotBefore * 1.02);
  EXPECT_LT(res.hpwlAfter, 1.5 * res.hpwlBefore);
}

TEST(Routability, RefineNeverRaisesTheHotspotScore) {
  // A round that makes congestion worse is undone, so the score returned
  // is never above the input's, whatever the input placement.
  RuntimeContext ctx;
  for (const std::uint64_t seed : {12, 13, 14}) {
    SCOPED_TRACE(seed);
    GenSpec spec;
    spec.name = "route";
    spec.numCells = 500;
    spec.locality = 0.9;
    spec.seed = seed;
    PlacementDB db = generateCircuit(spec);
    runSupervisedFlow(db, {}, ctx, plainPolicy());
    const RoutabilityResult res = routabilityDrivenRefine(db, ctx);
    EXPECT_LE(res.hotspotAfter, res.hotspotBefore);
    EXPECT_TRUE(res.legal);
  }
}

TEST(Routability, NoMovableCellsIsNoop) {
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 32, 32};
  Object o;
  o.name = "blk";
  o.w = 8;
  o.h = 8;
  o.fixed = true;
  o.kind = ObjKind::kMacro;
  db.objects.push_back(o);
  db.finalize();
  const RoutabilityResult res = routabilityDrivenRefine(db, ctx);
  EXPECT_EQ(res.rounds, 0);
  EXPECT_DOUBLE_EQ(res.hpwlBefore, res.hpwlAfter);
}

TEST(Routability, RestoresTrueCellSizes) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 300;
  spec.seed = 14;
  PlacementDB db = generateCircuit(spec);
  std::vector<double> widths;
  for (const auto& o : db.objects) widths.push_back(o.w);
  runSupervisedFlow(db, {}, ctx, plainPolicy());
  routabilityDrivenRefine(db, ctx);
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(db.objects[i].w, widths[i]) << db.objects[i].name;
  }
}

}  // namespace
}  // namespace ep
