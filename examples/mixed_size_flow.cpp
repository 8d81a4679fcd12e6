// Mixed-size placement walkthrough — the scenario the paper's introduction
// motivates: a design with large movable macros *and* standard cells,
// placed by one generalized engine instead of a floorplanner + placer
// two-stage split.
//
// Demonstrates: stage-by-stage execution with live traces, snapshot images
// per stage, and the final legality/quality report.
#include <cstdio>

#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "eval/plot.h"
#include "gen/generator.h"
#include "util/context.h"

int main() {
  ep::RuntimeContext ctx;
  ctx.log().setLevel(ep::LogLevel::kInfo);

  ep::GenSpec spec;
  spec.name = "mixed_size_demo";
  spec.numCells = 2000;
  spec.numMovableMacros = 12;
  spec.macroAreaFraction = 0.35;
  spec.numIo = 96;
  spec.utilization = 0.65;
  spec.seed = 7;
  ep::PlacementDB db = ep::generateCircuit(spec);
  std::printf("instance: %zu cells + %zu movable macros, %zu nets\n",
              spec.numCells, db.numMovableMacros(), db.nets.size());

  ep::FlowConfig cfg;
  int lastPrinted = -1000;
  cfg.gpTrace = [&](const std::string& stage, const ep::GpIterTrace& t) {
    if (t.iter - lastPrinted >= 50 || t.iter == 0) {
      std::printf("  [%s] iter %4d  HPWL %10.4g  overflow %5.3f  lambda "
                  "%8.3g\n",
                  stage.c_str(), t.iter, t.hpwl, t.overflow, t.lambda);
      lastPrinted = t.iter;
    }
  };

  const ep::FlowResult res = *ep::runSupervisedFlow(
      db, cfg, ctx, ep::plainPolicy());
  ep::plotLayout(db, "mixed_size_final.ppm", ctx);

  std::printf("\nstage summary:\n");
  auto stage = [](const char* name, const ep::StageMetrics& m) {
    if (!m.ran) return;
    std::printf("  %-4s HPWL %10.4g  overflow %5.3f  %6.2fs\n", name, m.hpwl,
                m.overflow, m.seconds);
  };
  stage("mIP", res.mip);
  stage("mGP", res.mgp);
  stage("mLG", res.mlg);
  stage("cGP", res.cgp);
  stage("cDP", res.cdp);
  std::printf("macro legalization: overlap %.4g -> %.4g (%s)\n",
              res.mlgResult.overlapBefore, res.mlgResult.overlapAfter,
              res.mlgResult.legal ? "legal" : "NOT legal");
  std::printf("final: HPWL %.4g, legal=%s, total %.2fs "
              "(layout: mixed_size_final.ppm)\n",
              res.finalHpwl, res.legality.legal ? "yes" : "no",
              res.totalSeconds);
  return res.legality.legal ? 0 : 1;
}
