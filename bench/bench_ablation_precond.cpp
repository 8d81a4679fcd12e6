// Sec. V-D ablation: disable the approximated preconditioner
// (|E_i| + lambda q_i) and rerun the flow on an MMS subset.
//
// Paper expectation: unpreconditioned gradients make macros (much larger
// q_i) bounce between boundaries; ePlace then fails on 9/16 MMS circuits
// and loses 24.6% wirelength on the rest. At this repo's scaled-down macro
// sizes the failure mode is milder but the direction must hold.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  suite.resize(fastMode(argc, argv) ? 2 : 6);

  std::printf("=== Ablation: nonlinear preconditioning (Sec. V-D) ===\n");
  std::printf("%-22s %12s %12s %10s %10s\n", "circuit", "precond",
              "no-precond", "delta", "converged");

  std::vector<double> with, without;
  int failures = 0;
  for (const auto& spec : suite) {
    PlacementDB a = generateCircuit(spec);
    const FlowResult ra = *runSupervisedFlow(a, {}, ctx, plainPolicy());

    PlacementDB b = generateCircuit(spec);
    FlowConfig off;
    off.gp.enablePreconditioner = false;
    const FlowResult rb = *runSupervisedFlow(b, off, ctx, plainPolicy());
    if (!rb.mgpResult.converged) ++failures;

    with.push_back(ra.finalScaledHpwl);
    without.push_back(rb.finalScaledHpwl);
    std::printf("%-22s %12.4g %12.4g %+9.1f%% %10s\n", spec.name.c_str(),
                ra.finalScaledHpwl, rb.finalScaledHpwl,
                (rb.finalScaledHpwl / ra.finalScaledHpwl - 1.0) * 100.0,
                rb.mgpResult.converged ? "yes" : "NO");
  }

  const double delta = (meanRatio(without, with) - 1.0) * 100.0;
  std::printf("\nno-preconditioner wirelength delta: %+.2f%% (geomean), "
              "failures %d/%zu\n", delta, failures, suite.size());
  std::printf("paper: fails on 9/16 circuits, +24.6%% wirelength on the "
              "remaining seven.\n");
  const bool shape = delta > 0.0 || failures > 0;
  std::printf("shape check (disabling hurts): %s\n", shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
