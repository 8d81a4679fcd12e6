#include <gtest/gtest.h>

#include <cmath>

#include "gen/generator.h"
#include "timing/sta.h"
#include "timing/timing_driven.h"
#include "util/context.h"

namespace ep {
namespace {

/// Hand-built chain: in -> a -> b -> out, unit-ish geometry so delays are
/// exact Manhattan distances.
PlacementDB chain() {
  PlacementDB db;
  db.region = {0, 0, 100, 10};
  auto add = [&](const char* name, double cx, double cy, bool fixed) {
    Object o;
    o.name = name;
    o.w = 1;
    o.h = 1;
    o.fixed = fixed;
    o.setCenter(cx, cy);
    db.objects.push_back(o);
  };
  add("in", 0.5, 5, true);    // 0
  add("a", 10.5, 5, false);   // 1
  add("b", 30.5, 5, false);   // 2
  add("out", 70.5, 5, true);  // 3
  auto net = [&](const char* name, std::int32_t from, std::int32_t to) {
    Net n;
    n.name = name;
    n.pins = {{from, 0, 0, PinDir::kOutput}, {to, 0, 0, PinDir::kInput}};
    db.nets.push_back(n);
  };
  net("n0", 0, 1);  // delay 10
  net("n1", 1, 2);  // delay 20
  net("n2", 2, 3);  // delay 40
  db.finalize();
  return db;
}

TEST(Sta, ChainArrivalTimesExact) {
  RuntimeContext ctx;
  const PlacementDB db = chain();
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_DOUBLE_EQ(res.arrival[0], 0.0);
  EXPECT_DOUBLE_EQ(res.arrival[1], 10.0);
  EXPECT_DOUBLE_EQ(res.arrival[2], 30.0);
  EXPECT_DOUBLE_EQ(res.arrival[3], 70.0);
  EXPECT_DOUBLE_EQ(res.maxDelay, 70.0);
  EXPECT_EQ(res.cutCycleEdges, 0);
}

TEST(Sta, AutoClockGivesZeroWns) {
  RuntimeContext ctx;
  const StaResult res = staAnalyze(chain(), ctx);
  EXPECT_DOUBLE_EQ(res.clockPeriod, 70.0);
  EXPECT_DOUBLE_EQ(res.wns, 0.0);
  EXPECT_DOUBLE_EQ(res.tns, 0.0);
}

TEST(Sta, TightClockProducesNegativeSlack) {
  RuntimeContext ctx;
  const StaResult res = staAnalyze(chain(), ctx, 50.0);
  EXPECT_DOUBLE_EQ(res.wns, -20.0);
  EXPECT_DOUBLE_EQ(res.tns, -20.0);
  // Every net on the single path carries the same worst slack.
  EXPECT_DOUBLE_EQ(res.netSlack[0], -20.0);
  EXPECT_DOUBLE_EQ(res.netSlack[1], -20.0);
  EXPECT_DOUBLE_EQ(res.netSlack[2], -20.0);
}

TEST(Sta, CriticalityBounds) {
  RuntimeContext ctx;
  const StaResult res = staAnalyze(chain(), ctx, 70.0);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_GE(res.criticality(e), 0.0);
    EXPECT_LE(res.criticality(e), 1.0);
  }
  // All three nets lie on the one (critical) path.
  EXPECT_DOUBLE_EQ(res.criticality(0), 1.0);
}

TEST(Sta, SidePathHasLowerCriticality) {
  RuntimeContext ctx;
  PlacementDB db = chain();
  // Add a short side branch: a -> s (tiny delay), endpoint s.
  Object s;
  s.name = "s";
  s.w = 1;
  s.h = 1;
  s.setCenter(11.5, 5);
  db.objects.push_back(s);
  Net n;
  n.name = "side";
  n.pins = {{1, 0, 0, PinDir::kOutput}, {4, 0, 0, PinDir::kInput}};
  db.nets.push_back(n);
  db.finalize();
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_LT(res.criticality(3), res.criticality(0));
}

TEST(Sta, CombinationalLoopIsCutNotHung) {
  RuntimeContext ctx;
  PlacementDB db = chain();
  // b -> a creates a cycle.
  Net back;
  back.name = "loop";
  back.pins = {{2, 0, 0, PinDir::kOutput}, {1, 0, 0, PinDir::kInput}};
  db.nets.push_back(back);
  db.finalize();
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_GT(res.cutCycleEdges, 0);
  EXPECT_TRUE(std::isfinite(res.maxDelay));
}

TEST(Sta, FallsBackToFirstPinWithoutDirections) {
  RuntimeContext ctx;
  PlacementDB db = chain();
  for (auto& net : db.nets) {
    for (auto& pin : net.pins) pin.dir = PinDir::kUnknown;
  }
  const StaResult res = staAnalyze(db, ctx);
  // First pin is the driver in our construction, so results are unchanged.
  EXPECT_DOUBLE_EQ(res.maxDelay, 70.0);
}

TEST(Sta, GeneratedCircuitIsAnalyzable) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 600;
  spec.seed = 77;
  const PlacementDB db = generateCircuit(spec);
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_GT(res.maxDelay, 0.0);
  EXPECT_NEAR(res.wns, 0.0, 1e-9);  // auto clock (float round-off allowed)
  // Slack must be finite for nets with real edges.
  int finiteSlacks = 0;
  for (std::size_t e = 0; e < db.nets.size(); ++e) {
    if (std::isfinite(res.netSlack[e])) ++finiteSlacks;
  }
  EXPECT_GT(finiteSlacks, static_cast<int>(db.nets.size() / 2));
}

TEST(Sta, CriticalityOfNetWithoutEdgesIsZero) {
  RuntimeContext ctx;
  PlacementDB db = chain();
  Net lone;
  lone.name = "lone";
  lone.pins = {{0, 0, 0, PinDir::kOutput}};  // single pin: no timing edge
  db.nets.push_back(lone);
  db.finalize();
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_DOUBLE_EQ(res.criticality(3), 0.0);
}

TEST(Sta, EmptyDesignIsSafe) {
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 10, 10};
  db.finalize();
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_DOUBLE_EQ(res.maxDelay, 0.0);
  EXPECT_DOUBLE_EQ(res.wns, 0.0);
  EXPECT_GT(res.clockPeriod, 0.0);  // falls back to a positive default
}

TEST(Sta, PinOffsetsAffectDelay) {
  RuntimeContext ctx;
  PlacementDB db = chain();
  // Push the driver pin of n0 1 unit right: the first edge shortens.
  db.nets[0].pins[0].ox = 1.0;
  const StaResult res = staAnalyze(db, ctx);
  EXPECT_DOUBLE_EQ(res.arrival[1], 9.0);
}

TEST(TimingDriven, ImprovesOrHoldsWnsAndStaysLegal) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.name = "td";
  spec.numCells = 500;
  spec.seed = 21;
  PlacementDB db = generateCircuit(spec);
  TimingDrivenConfig cfg;
  cfg.rounds = 1;
  const TimingDrivenResult res = timingDrivenPlace(db, ctx, cfg);
  EXPECT_TRUE(res.legal);
  // Best-of-rounds is kept, so WNS can only improve or hold.
  EXPECT_GE(res.wnsAfter, res.wnsBefore - 1e-9);
  // Net weights restored.
  for (const auto& net : db.nets) EXPECT_DOUBLE_EQ(net.weight, 1.0);
}

TEST(TimingDriven, ClockTargetDerivedFromSeedRun) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 300;
  spec.seed = 23;
  PlacementDB db = generateCircuit(spec);
  TimingDrivenConfig cfg;
  cfg.rounds = 0;  // seed run only
  const TimingDrivenResult res = timingDrivenPlace(db, ctx, cfg);
  EXPECT_NEAR(res.clockPeriod, cfg.clockFactor * res.maxDelayBefore,
              1e-6 * res.clockPeriod);
}

}  // namespace
}  // namespace ep
