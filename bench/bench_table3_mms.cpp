// Table III reproduction: (scaled) HPWL on the MMS-like mixed-size suite —
// same netlists as Tables I/II but macros movable and fixed IO blocks.
// ePlace runs its full flow (mIP -> mGP -> mLG -> cGP -> cDP); baselines
// place macros and cells together in their global stage, then share the
// same mLG + legalization finish.
//
// Paper expectation (Table III): ePlace best on 11/16 circuits, on average
// 7.1% ahead of the best competitor (NTUplace3-unified) at ~equal runtime,
// and the lowest density overflow (others 1.7x-9x).
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = mmsSuite();
  if (fastMode(argc, argv)) suite.resize(3);

  std::printf("=== Table III: MMS-like mixed-size suite (scaled HPWL x1e3) ===\n");
  std::printf("%-22s %5s %10s %10s %10s %10s   ePlace-best?\n", "circuit",
              "#mac", "MinCut", "Quad", "Bell", "ePlace");

  std::vector<double> shp[4], rt[4], ovf[4];
  int eplaceBest = 0;
  for (const auto& spec : suite) {
    const RunMetrics m[4] = {runMinCut(spec, ctx), runQuadratic(spec, ctx),
                             runBell(spec, ctx), runEplace(spec, ctx)};
    for (int p = 0; p < 4; ++p) {
      shp[p].push_back(m[p].scaledHpwl);
      rt[p].push_back(m[p].seconds);
      ovf[p].push_back(std::max(m[p].overflow, 1e-4));
    }
    const bool best = m[3].scaledHpwl <= m[0].scaledHpwl &&
                      m[3].scaledHpwl <= m[1].scaledHpwl &&
                      m[3].scaledHpwl <= m[2].scaledHpwl;
    eplaceBest += best ? 1 : 0;
    std::printf("%-22s %5zu %10.2f %10.2f %10.2f %10.2f   %s\n",
                spec.name.c_str(), spec.numMovableMacros,
                m[0].scaledHpwl / 1e3, m[1].scaledHpwl / 1e3,
                m[2].scaledHpwl / 1e3, m[3].scaledHpwl / 1e3,
                best ? "yes" : "no");
  }

  std::printf("\nePlace best on %d/%zu circuits\n", eplaceBest, suite.size());
  std::printf("%-22s %15.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
              "avg sHPWL vs ePlace",
              (meanRatio(shp[0], shp[3]) - 1.0) * 100.0,
              (meanRatio(shp[1], shp[3]) - 1.0) * 100.0,
              (meanRatio(shp[2], shp[3]) - 1.0) * 100.0, 0.0);
  std::printf("%-22s %15.2fx %9.2fx %9.2fx %9.2fx\n", "avg runtime vs ePlace",
              meanRatio(rt[0], rt[3]), meanRatio(rt[1], rt[3]),
              meanRatio(rt[2], rt[3]), 1.0);
  std::printf("%-22s %15.2fx %9.2fx %9.2fx %9.2fx\n", "avg overflow vs ePlace",
              meanRatio(ovf[0], ovf[3]), meanRatio(ovf[1], ovf[3]),
              meanRatio(ovf[2], ovf[3]), 1.0);
  std::printf(
      "\npaper Table III: min-cut +64%%, quadratic +11..18%%, prior "
      "nonlinear +7.1..31%%; ePlace best on 11/16, lowest overflow. NOTE: overflow ratios are ~1 here by construction (shared legalization finish; see EXPERIMENTS.md).\n");
  return 0;
}
