// Quickstart: generate a small circuit, run the full ePlace flow, print the
// per-stage metrics, and verify the final layout is legal.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "util/context.h"

int main() {
  ep::RuntimeContext ctx;
  ctx.log().setLevel(ep::LogLevel::kInfo);

  // A small mixed-size instance: 1000 std cells, 6 movable macros, IO pads.
  ep::GenSpec spec;
  spec.name = "quickstart";
  spec.numCells = 1000;
  spec.numMovableMacros = 6;
  spec.numIo = 64;
  spec.utilization = 0.7;
  spec.seed = 2024;
  ep::PlacementDB db = ep::generateCircuit(spec);
  std::printf("circuit: %zu objects, %zu nets, region %.0f x %.0f\n",
              db.objects.size(), db.nets.size(), db.region.width(),
              db.region.height());

  ep::FlowConfig cfg;
  const ep::FlowResult res = *ep::runSupervisedFlow(
      db, cfg, ctx, ep::plainPolicy());

  auto stage = [](const char* name, const ep::StageMetrics& m) {
    if (!m.ran) return;
    std::printf("%-4s  HPWL %12.4e  overflow %6.3f  %7.2fs  (%d iters)\n",
                name, m.hpwl, m.overflow, m.seconds, m.iterations);
  };
  stage("mIP", res.mip);
  stage("mGP", res.mgp);
  stage("mLG", res.mlg);
  stage("cGP", res.cgp);
  stage("cDP", res.cdp);
  std::printf("final HPWL %.4e (scaled %.4e), legal=%s\n", res.finalHpwl,
              res.finalScaledHpwl, res.legality.legal ? "yes" : "no");
  if (!res.legality.legal) {
    std::printf("first legality issue: %s\n", res.legality.firstIssue.c_str());
    return 1;
  }
  return 0;
}
