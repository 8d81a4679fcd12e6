// Fig. 7 reproduction: runtime breakdown of the ePlace flow averaged over
// the MMS-like suite — per-stage shares (mGP / mLG / cGP / cDP / mIP) and
// the split inside mGP (density gradient / wirelength gradient / other).
//
// Paper expectation (Fig. 7): mGP dominates the flow runtime; inside mGP
// the density gradient is the largest share (57%), wirelength gradient
// 29%, everything else (Lipschitz prediction, parameter updates) 14%.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  if (fastMode(argc, argv)) suite.resize(4);

  double stage[5] = {};  // mIP, mGP, mLG, cGP, cDP
  double inner[3] = {};  // density, wirelength, other
  for (const auto& spec : suite) {
    PlacementDB db = generateCircuit(spec);
    const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
    stage[0] += res.mip.seconds;
    stage[1] += res.mgp.seconds;
    for (const LevelMetrics& lm : res.mgpLevels) stage[1] += lm.metrics.seconds;
    stage[2] += res.mlg.seconds;
    stage[3] += res.cgp.seconds;
    stage[4] += res.cdp.seconds;
    // GpResult times the two halves of every gradient evaluation; the
    // rest of the flat mGP stage is "other".
    const GpResult& gp = res.mgpResult;
    inner[0] += gp.densitySeconds;
    inner[1] += gp.wirelengthSeconds;
    inner[2] += res.mgp.seconds - gp.densitySeconds - gp.wirelengthSeconds;
  }

  const double total = stage[0] + stage[1] + stage[2] + stage[3] + stage[4];
  const double mgpTotal = inner[0] + inner[1] + inner[2];
  std::printf("=== Fig. 7: runtime breakdown, mean over MMS-like suite ===\n");
  const char* names[5] = {"mIP", "mGP", "mLG", "cGP", "cDP"};
  for (int i = 0; i < 5; ++i) {
    std::printf("%-4s %6.1f%%  (%.2fs total)\n", names[i],
                100.0 * stage[i] / total, stage[i]);
  }
  std::printf("inside mGP: density %.0f%%, wirelength %.0f%%, other %.0f%%\n",
              100.0 * inner[0] / mgpTotal, 100.0 * inner[1] / mgpTotal,
              100.0 * inner[2] / mgpTotal);

  const bool shape =
      stage[1] >= stage[0] && stage[1] >= stage[2] && stage[1] >= stage[4] &&
      inner[0] >= inner[1];
  std::printf("shape check (mGP dominant, density gradient the largest mGP "
              "share): %s\n", shape ? "PASS" : "FAIL");
  std::printf("paper Fig. 7: mGP is the longest stage; density 57%% / "
              "wirelength 29%% / other 14%% inside mGP.\n");
  return shape ? 0 : 1;
}
