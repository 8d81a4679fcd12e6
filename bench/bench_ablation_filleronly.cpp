// Sec. VI-B ablation: skip the 20-iteration filler-only placement that
// relocates fillers around the legalized macros before cGP.
//
// Paper expectation: disabling it costs 6.53% wirelength on average of the
// MMS suite — without it, macro-to-filler overlap forces standard cells to
// pay wirelength for density during cGP.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  suite.resize(fastMode(argc, argv) ? 2 : 8);

  std::printf("=== Ablation: filler-only placement before cGP (Sec. VI-B) ===\n");
  std::printf("%-22s %12s %12s %10s\n", "circuit", "with", "without", "delta");

  std::vector<double> with, without;
  for (const auto& spec : suite) {
    PlacementDB a = generateCircuit(spec);
    const FlowResult ra = *runSupervisedFlow(a, {}, ctx, plainPolicy());

    PlacementDB b = generateCircuit(spec);
    FlowConfig off;
    off.enableFillerOnly = false;
    const FlowResult rb = *runSupervisedFlow(b, off, ctx, plainPolicy());

    with.push_back(ra.finalScaledHpwl);
    without.push_back(rb.finalScaledHpwl);
    std::printf("%-22s %12.4g %12.4g %+9.2f%%\n", spec.name.c_str(),
                ra.finalScaledHpwl, rb.finalScaledHpwl,
                (rb.finalScaledHpwl / ra.finalScaledHpwl - 1.0) * 100.0);
  }

  const double delta = (meanRatio(without, with) - 1.0) * 100.0;
  std::printf("\nno-filler-only wirelength delta: %+.2f%% (geomean)\n", delta);
  std::printf("paper: +6.53%% on average of all MMS benchmarks.\n");
  const bool shape = delta > -1.0;  // must not help; expected to hurt
  std::printf("shape check (skipping does not help): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
