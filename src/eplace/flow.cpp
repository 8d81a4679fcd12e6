#include "eplace/flow.h"

#include <cmath>

#include "util/context.h"
#include "util/log.h"
#include "wirelength/wl.h"

namespace ep {

/// Filler-only iterations before cGP (Sec. VI-B).
constexpr int kFillerOnlyIterations = 20;
/// cGP rewinds lambda by 1.1^-m with m = mGP iterations / this (Sec. VI-B).
constexpr int kCgpBufferDivisor = 10;

StageMetrics flowStageMetrics(const PlacementDB& db, double seconds,
                              int iterations) {
  StageMetrics m;
  m.hpwl = hpwl(db);
  m.overflow = densityOverflow(db).overflow;
  m.seconds = seconds;
  m.iterations = iterations;
  m.ran = true;
  return m;
}

void flowStageMip(PlacementDB& db, FlowState& st) {
  Timer t;
  quadraticInitialPlace(db, *st.ctx);
  st.res.mip = flowStageMetrics(db, t.seconds(), kMipOuterIterations);
}

void flowStageMgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl) {
  Timer t;
  GlobalPlacer mgp(db, db.movable(), st.cfg.gp, *st.ctx);
  if (ctl.resume != nullptr && st.fillers.size() > 0) {
    // Resumed mid-mGP: the checkpoint carries the filler set (positions are
    // inside the optimizer state; dims/count must match the engine).
    mgp.setFillers(st.fillers);
  } else {
    mgp.makeFillersFromDb();
    // Publish the set before run(): mid-stage save hooks serialize
    // st.fillers, and a resume needs matching filler dims/count.
    st.fillers = mgp.fillers();
  }
  GlobalPlacer::TraceFn trace;
  if (st.cfg.gpTrace) {
    trace = [&st](const GpIterTrace& it) { st.cfg.gpTrace("mGP", it); };
  }
  st.res.mgpResult = mgp.run(trace, ctl);
  st.fillers = mgp.fillers();
  st.res.mgp = flowStageMetrics(db, t.seconds(), st.res.mgpResult.iterations);
}

void flowStageMlg(PlacementDB& db, FlowState& st) {
  Timer t;
  st.res.mlgResult = legalizeMacros(db, *st.ctx, st.cfg.mlg);
  st.res.mlg =
      flowStageMetrics(db, t.seconds(), st.res.mlgResult.outerIterations);
}

void flowFreezeMacros(PlacementDB& db) {
  for (auto& o : db.objects) {
    if (o.kind == ObjKind::kMacro) o.fixed = true;
  }
  db.finalize();
}

void flowStageCgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl) {
  Timer t;
  GpConfig gpc = st.cfg.gp;
  const int m = std::max(1, st.res.mgpResult.iterations / kCgpBufferDivisor);
  gpc.initialLambda = st.res.mgpResult.finalLambda *
                      std::pow(kLambdaMultMax, -static_cast<double>(m));
  GlobalPlacer cgp(db, db.movable(), gpc, *st.ctx);
  cgp.setFillers(st.fillers);
  if (st.cfg.enableFillerOnly && ctl.resume == nullptr) {
    cgp.runFillerOnly(kFillerOnlyIterations);
  }
  GlobalPlacer::TraceFn trace;
  if (st.cfg.gpTrace) {
    trace = [&st](const GpIterTrace& it) { st.cfg.gpTrace("cGP", it); };
  }
  st.res.cgpResult = cgp.run(trace, ctl);
  st.fillers = cgp.fillers();
  st.res.cgp = flowStageMetrics(db, t.seconds(), st.res.cgpResult.iterations);
}

void flowStageCdp(PlacementDB& db, FlowState& st) {
  Timer t;
  st.res.legalizeResult = legalizeCells(db, *st.ctx);
  st.res.detailResult = detailPlace(db, *st.ctx, st.cfg.detail);
  st.res.cdp = flowStageMetrics(db, t.seconds(), st.res.detailResult.passes);
}

void flowComposeStatus(FlowResult& res, FlowStage stage,
                       const Status& failure) {
  if (!res.status.ok()) return;
  if (stage > FlowStage::kMgp && !res.mgpResult.status.ok()) {
    res.status = res.mgpResult.status;
  } else if (stage > FlowStage::kCgp && !res.cgpResult.status.ok()) {
    res.status = res.cgpResult.status;
  } else {
    res.status = failure;
  }
}

void flowFinish(PlacementDB& db, FlowState& st) {
  FlowResult& res = st.res;
  res.finalHpwl = hpwl(db);
  res.finalScaledHpwl = scaledHpwl(db);
  res.legality = checkLegality(db);
  res.totalSeconds = st.total.seconds();
  // Later stages ran on the failing stage's best-checkpoint placement, so
  // their metrics are still meaningful.
  flowComposeStatus(res, FlowStage::kDone, Status());
  RuntimeContext& rc = *st.ctx;
  rc.stats().set("flow.finalHpwl", res.finalHpwl);
  rc.stats().set("flow.totalSeconds", res.totalSeconds);
  rc.log().info(
      "flow done: HPWL %.4g (scaled %.4g), legal=%d, status=%s, %.2fs",
      res.finalHpwl, res.finalScaledHpwl, res.legality.legal ? 1 : 0,
      statusCodeName(res.status.code()), res.totalSeconds);
}

}  // namespace ep
