// Extension experiment: macro rotation/flipping during mLG. The paper
// disallows both ("to follow contest protocols and lithography
// requirements", Sec. III) while noting the framework supports them; the
// comparison against NTUplace3-NR vs NTUplace3 in Table III shows rotation
// is worth ~0.3% there. This bench measures what the annealer gains when
// the moves are enabled in this repo.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  suite.resize(fastMode(argc, argv) ? 2 : 6);

  std::printf("=== Extension: macro rotation/flipping in mLG ===\n");
  std::printf("%-22s %12s %12s %10s\n", "circuit", "no-rotate", "rotate",
              "delta");

  std::vector<double> plain, rotated;
  for (const auto& spec : suite) {
    PlacementDB a = generateCircuit(spec);
    const FlowResult ra = *runSupervisedFlow(a, {}, ctx, plainPolicy());

    PlacementDB b = generateCircuit(spec);
    FlowConfig cfg;
    cfg.mlg.allowRotation = true;
    cfg.mlg.allowFlipping = true;
    const FlowResult rb = *runSupervisedFlow(b, cfg, ctx, plainPolicy());

    plain.push_back(ra.finalScaledHpwl);
    rotated.push_back(rb.finalScaledHpwl);
    std::printf("%-22s %12.4g %12.4g %+9.2f%%\n", spec.name.c_str(),
                ra.finalScaledHpwl, rb.finalScaledHpwl,
                (rb.finalScaledHpwl / ra.finalScaledHpwl - 1.0) * 100.0);
  }

  const double delta = (meanRatio(rotated, plain) - 1.0) * 100.0;
  std::printf("\nrotation-enabled wirelength delta: %+.2f%% (geomean; "
              "negative = rotation helps)\n", delta);
  std::printf("paper context: NTUplace3 with rotation beats its own NR mode "
              "by ~0.3%% (Table III) — a small effect is expected.\n");
  const bool shape = delta < 2.0;  // must not hurt materially
  std::printf("shape check (rotation does not hurt): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
