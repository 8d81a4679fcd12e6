// Checkpoint/rollback recovery under injected numerical faults: the placer
// must detect NaN/spiking gradients and divergence, roll back to a healthy
// checkpoint, and either finish normally or degrade gracefully to the best
// checkpoint with a typed status — never crash, never return NaN positions.
#include <gtest/gtest.h>

#include <cmath>

#include "eplace/global_placer.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/fault_injector.h"

namespace ep {
namespace {

PlacementDB smallInstance(std::uint64_t seed = 11) {
  GenSpec spec;
  spec.name = "recovery";
  spec.numCells = 300;
  spec.seed = seed;
  return generateCircuit(spec);
}

GpConfig recoveryConfig() {
  GpConfig cfg;
  cfg.maxIterations = 600;
  cfg.health.checkpointEvery = 10;
  return cfg;
}

bool placementInsideRegion(const PlacementDB& db) {
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    const Point c = o.center();
    if (!std::isfinite(c.x) || !std::isfinite(c.y)) return false;
    if (c.x < db.region.lx - 1e-6 || c.x > db.region.hx + 1e-6 ||
        c.y < db.region.ly - 1e-6 || c.y > db.region.hy + 1e-6) {
      return false;
    }
  }
  return true;
}

GpResult runPlacer(PlacementDB& db, const GpConfig& cfg,
                   RuntimeContext& ctx) {
  quadraticInitialPlace(db, ctx);
  GlobalPlacer gp(db, db.movable(), cfg, ctx);
  gp.makeFillersFromDb();
  return gp.run();
}

using RecoveryTest = ::testing::Test;

TEST_F(RecoveryTest, NanGradientTriggersRollbackAndRecovers) {
  // Reference run, no faults.
  RuntimeContext ref_ctx;
  PlacementDB clean = smallInstance();
  const GpResult ref = runPlacer(clean, recoveryConfig(), ref_ctx);
  ASSERT_TRUE(ref.status.ok());
  ASSERT_TRUE(ref.converged);

  // Same instance with one NaN injected into the gradient mid-run.
  RuntimeContext ctx;
  PlacementDB faulty = smallInstance();
  ctx.faults().arm("nesterov.grad",
                   {FaultKind::kNaN, /*atTick=*/40, /*count=*/1});
  const GpResult res = runPlacer(faulty, recoveryConfig(), ctx);

  EXPECT_EQ(ctx.faults().fireCount("nesterov.grad"), 1);
  EXPECT_TRUE(res.status.ok()) << res.status.toString();
  EXPECT_GE(res.recoveries, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.finalOverflow, recoveryConfig().targetOverflow + 1e-9);
  EXPECT_TRUE(placementInsideRegion(faulty));
  // Recovery must not cost placement quality: within 5% of the clean run.
  EXPECT_NEAR(res.finalHpwl, ref.finalHpwl, 0.05 * ref.finalHpwl);
}

TEST_F(RecoveryTest, GradientSpikeTriggersRollbackAndRecovers) {
  RuntimeContext ref_ctx;
  PlacementDB clean = smallInstance(23);
  const GpResult ref = runPlacer(clean, recoveryConfig(), ref_ctx);
  ASSERT_TRUE(ref.converged);

  RuntimeContext ctx;
  PlacementDB faulty = smallInstance(23);
  ctx.faults().arm(
      "nesterov.grad", {FaultKind::kSpike, /*atTick=*/60, /*count=*/2, 1e12});
  const GpResult res = runPlacer(faulty, recoveryConfig(), ctx);

  EXPECT_TRUE(res.status.ok()) << res.status.toString();
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(placementInsideRegion(faulty));
  EXPECT_NEAR(res.finalHpwl, ref.finalHpwl, 0.05 * ref.finalHpwl);
}

TEST_F(RecoveryTest, PersistentFaultExhaustsBudgetAndReturnsBestCheckpoint) {
  RuntimeContext ctx;
  PlacementDB db = smallInstance();
  // Every gradient evaluation from pass 30 on is poisoned: recovery cannot
  // succeed, so the placer must exhaust its budget and hand back the best
  // checkpoint with a NumericalDivergence status.
  ctx.faults().arm("nesterov.grad",
                   {FaultKind::kNaN, /*atTick=*/30, /*count=*/-1});
  GpConfig cfg = recoveryConfig();
  const GpResult res = runPlacer(db, cfg, ctx);

  EXPECT_EQ(res.status.code(), StatusCode::kNumericalDivergence)
      << res.status.toString();
  EXPECT_EQ(res.recoveries, cfg.health.maxRecoveries);
  EXPECT_FALSE(res.converged);
  // Graceful degradation: the checkpoint placement is finite and legal-region.
  EXPECT_TRUE(placementInsideRegion(db));
  EXPECT_TRUE(std::isfinite(res.finalHpwl));
  EXPECT_TRUE(std::isfinite(res.finalOverflow));
}

TEST_F(RecoveryTest, FftFaultIsCaughtByGradientHealthCheck) {
  RuntimeContext ctx;
  PlacementDB db = smallInstance(31);
  // Corrupt a spectral coefficient inside the Poisson solver: the NaN
  // reaches the density gradient and must trip the same recovery path.
  ctx.faults().arm("fft.forward",
                   {FaultKind::kNaN, /*atTick=*/200, /*count=*/1});
  const GpResult res = runPlacer(db, recoveryConfig(), ctx);

  EXPECT_GE(ctx.faults().fireCount("fft.forward"), 1);
  EXPECT_TRUE(res.status.ok()) << res.status.toString();
  EXPECT_TRUE(placementInsideRegion(db));
  EXPECT_TRUE(std::isfinite(res.finalHpwl));
}

TEST_F(RecoveryTest, WatchdogStopsLongStageGracefully) {
  // The context deadline is the only wall-clock limit; one that has already
  // passed stops the GP loop before its first iteration.
  RuntimeOptions opt;
  opt.wallBudgetSeconds = 1e-9;
  RuntimeContext ctx(opt);
  while (!ctx.deadlineExceeded()) {
  }
  PlacementDB db = smallInstance(47);
  const GpResult res = runPlacer(db, recoveryConfig(), ctx);

  EXPECT_EQ(res.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_TRUE(placementInsideRegion(db));
  EXPECT_TRUE(std::isfinite(res.finalHpwl));
}

TEST_F(RecoveryTest, FlowCarriesDivergenceStatusThrough) {
  RuntimeContext ctx;
  PlacementDB db = smallInstance(53);
  ctx.faults().arm("nesterov.grad",
                   {FaultKind::kNaN, /*atTick=*/30, /*count=*/-1});
  FlowConfig cfg;
  cfg.runDetail = false;  // keep the degraded layout observable
  const StatusOr<FlowResult> res =
      runSupervisedFlow(db, cfg, ctx, plainPolicy());
  ASSERT_TRUE(res.ok());  // the flow ran; degradation is in res->status
  EXPECT_EQ(res->status.code(), StatusCode::kNumericalDivergence);
  EXPECT_TRUE(placementInsideRegion(db));
}

TEST_F(RecoveryTest, FlowCheckedRejectsZeroAreaMovable) {
  RuntimeContext ctx;
  PlacementDB db = smallInstance();
  db.objects[db.movable()[0]].w = 0.0;
  const StatusOr<FlowResult> res = runSupervisedFlow(
      db, {}, ctx, plainPolicy());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(res.status().message().find("zero area"), std::string::npos);
}

TEST_F(RecoveryTest, SanitizeClampsStrandedPadAndRecentersNanMovable) {
  PlacementDB db = smallInstance();
  // A pad flung 100 region-widths away (corrupt coordinates) and a movable
  // cell with NaN position must both be repaired, then the flow runs.
  Object pad;
  pad.name = "stranded";
  pad.w = 1;
  pad.h = 1;
  pad.fixed = true;
  pad.setCenter(db.region.hx + 100.0 * db.region.width(), db.region.hy);
  db.objects.push_back(pad);
  db.objects[db.movable()[0]].lx = std::nan("");
  db.finalize();

  int repaired = 0;
  ASSERT_TRUE(db.sanitize(&repaired).ok());
  EXPECT_EQ(repaired, 2);
  EXPECT_TRUE(db.validate().ok());
  const Point c = db.objects.back().center();
  EXPECT_LE(c.x, db.region.hx + 1e-9);
  // A pad just outside the boundary (normal periphery IO) is left alone.
  Object io;
  io.name = "edge_io";
  io.w = 1;
  io.h = 1;
  io.fixed = true;
  io.setCenter(db.region.lx - 1.0, db.region.ly);
  db.objects.push_back(io);
  db.finalize();
  ASSERT_TRUE(db.sanitize(&repaired).ok());
  EXPECT_EQ(repaired, 0);
  EXPECT_DOUBLE_EQ(db.objects.back().center().x, db.region.lx - 1.0);
}

TEST_F(RecoveryTest, FaultInjectorIsDeterministic) {
  FaultInjector inj;
  std::vector<double> a(64, 1.0), b(64, 1.0);
  inj.arm("x", {FaultKind::kNaN, 0, 3});
  for (int i = 0; i < 3; ++i) {
    if (const FaultSpec* f = inj.fire("x")) inj.corrupt(a, *f);
  }
  inj.reset();
  inj.arm("x", {FaultKind::kNaN, 0, 3});
  for (int i = 0; i < 3; ++i) {
    if (const FaultSpec* f = inj.fire("x")) inj.corrupt(b, *f);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::isnan(a[i]), std::isnan(b[i])) << i;
  }
}

}  // namespace
}  // namespace ep
