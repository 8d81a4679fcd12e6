// Extension ablation: Nesterov momentum vs plain gradient descent with the
// same Lipschitz steplength prediction. The paper chooses Nesterov's method
// for its O(1/k^2) rate (Sec. V-B); this bench quantifies what the momentum
// term is worth inside the real placer — iterations to reach the overflow
// target and final wirelength.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = ispd2005Suite();
  suite.resize(fastMode(argc, argv) ? 2 : 4);

  std::printf("=== Ablation: Nesterov momentum vs gradient descent ===\n");
  std::printf("%-22s %12s %12s %12s %12s\n", "circuit", "nesterov-it",
              "gd-it", "nesterov-WL", "gd-WL");

  std::vector<double> nIt, gIt, nWl, gWl;
  for (const auto& spec : suite) {
    PlacementDB a = generateCircuit(spec);
    const FlowResult ra = *runSupervisedFlow(a, {}, ctx, plainPolicy());

    PlacementDB b = generateCircuit(spec);
    FlowConfig off;
    off.gp.enableMomentum = false;
    const FlowResult rb = *runSupervisedFlow(b, off, ctx, plainPolicy());

    nIt.push_back(ra.mgpResult.iterations);
    gIt.push_back(rb.mgpResult.iterations);
    nWl.push_back(ra.finalScaledHpwl);
    gWl.push_back(rb.finalScaledHpwl);
    std::printf("%-22s %12d %12d %12.4g %12.4g%s\n", spec.name.c_str(),
                ra.mgpResult.iterations, rb.mgpResult.iterations,
                ra.finalScaledHpwl, rb.finalScaledHpwl,
                rb.mgpResult.converged ? "" : "  (gd did not converge)");
  }

  const double itRatio = meanRatio(gIt, nIt);
  const double wlDelta = (meanRatio(gWl, nWl) - 1.0) * 100.0;
  std::printf("\ngradient descent needs %.2fx the iterations; wirelength "
              "delta %+.2f%%\n", itRatio, wlDelta);
  const bool shape = itRatio > 1.2 || wlDelta > 0.5;
  std::printf("shape check (momentum accelerates and/or improves): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
