// Sec. V-A experiment: line search is the runtime bottleneck of CG-based
// nonlinear placers (the paper measured >60% of FFTPL's runtime on
// ADAPTEC1 going to line search), which motivates Nesterov + Lipschitz
// steplength. We measure the share of optimizer time spent in line-search
// evaluations for the bell-shape CG placer, and contrast the gradient-
// evaluation counts per iteration of both optimizers.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = ispd2005Suite();
  suite.resize(fastMode(argc, argv) ? 1 : 3);

  std::printf("=== Sec. V-A: line-search cost in CG vs Nesterov ===\n");
  std::printf("%-22s %14s %16s %18s\n", "circuit", "LS share",
              "CG evals/iter", "Nesterov evals/iter");

  bool shape = true;
  for (const auto& spec : suite) {
    PlacementDB db = generateCircuit(spec);
    quadraticInitialPlace(db, ctx);
    BellPlaceConfig bcfg;
    bcfg.maxOuterIterations = 8;
    bcfg.cgIterationsPerOuter = 50;
    const BellPlaceResult bell = bellPlace(db, ctx, bcfg);
    const double lsShare = bell.lineSearchSeconds /
                           std::max(bell.optimizerSeconds, 1e-12);
    const double cgEvalsPerIter =
        static_cast<double>(bell.gradEvals) /
        (bcfg.maxOuterIterations * bcfg.cgIterationsPerOuter);

    PlacementDB db2 = generateCircuit(spec);
    quadraticInitialPlace(db2, ctx);
    GlobalPlacer gp(db2, db2.movable(), {}, ctx);
    gp.makeFillersFromDb();
    const GpResult nes = gp.run();
    const double nesEvalsPerIter =
        static_cast<double>(nes.gradEvals) / std::max(1, nes.iterations);

    std::printf("%-22s %13.1f%% %16.2f %18.2f\n", spec.name.c_str(),
                100.0 * lsShare, cgEvalsPerIter, nesEvalsPerIter);
    shape = shape && lsShare > 0.4 && nesEvalsPerIter < cgEvalsPerIter + 1.0;
  }

  std::printf("\npaper: line search >60%% of CG placer runtime; ePlace's "
              "Lipschitz prediction needs ~1 gradient per iteration "
              "(+1.037 backtracks avg -> <4%% overhead).\n");
  std::printf("shape check (LS dominates CG; Nesterov cheaper per iter): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
