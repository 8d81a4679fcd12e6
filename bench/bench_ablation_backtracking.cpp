// Sec. V-C ablation: disable the steplength backtracking (Alg. 2) and rerun
// the flow on an MMS subset.
//
// Paper expectation: without backtracking, ePlace fails outright on MMS
// BIGBLUE4 and loses 43.1% wirelength on average of the remaining circuits;
// average cost with backtracking is ~1.04 extra gradient evaluations per
// iteration (<4% mGP runtime).
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  suite.resize(fastMode(argc, argv) ? 2 : 6);

  std::printf("=== Ablation: steplength backtracking (Sec. V-C) ===\n");
  std::printf("%-22s %12s %12s %10s %10s\n", "circuit", "with-BkTrk",
              "no-BkTrk", "delta", "converged");

  std::vector<double> with, without;
  int failures = 0;
  double btPerIter = 0.0;
  for (const auto& spec : suite) {
    PlacementDB a = generateCircuit(spec);
    FlowConfig on;
    const FlowResult ra = *runSupervisedFlow(a, on, ctx, plainPolicy());
    btPerIter += static_cast<double>(ra.mgpResult.backtracks) /
                 std::max(1, ra.mgpResult.iterations);

    PlacementDB b = generateCircuit(spec);
    FlowConfig off;
    off.gp.enableBacktracking = false;
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
  btPerIter /= static_cast<double>(suite.size());
  std::printf("\nno-backtracking wirelength delta: %+.2f%% (geomean), "
              "failures %d/%zu\n", delta, failures, suite.size());
  std::printf("backtracks per iteration with BkTrk enabled: %.3f\n",
              btPerIter);
  std::printf("paper: +43.1%% average, 1 outright failure, 1.037 "
              "backtracks/iteration.\n");
  const bool shape = delta > 0.0 || failures > 0;
  std::printf("shape check (disabling hurts): %s\n", shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
