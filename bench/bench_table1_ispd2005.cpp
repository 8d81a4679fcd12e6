// Table I reproduction: HPWL and runtime on the ISPD-2005-like suite
// (standard cells only, rho_t = 1, fixed macro blocks).
//
// Columns are one representative per category of the paper's 12 competitors:
//   MinCut ~ Capo10.5 (min-cut), Quad ~ FastPlace3/ComPLx/BonnPlace
//   (quadratic), Bell ~ APlace3/NTUplace3 (nonlinear CG + bell density),
//   and ePlace.
//
// Paper expectation (Table I): ePlace shortest HPWL on all 8 circuits;
// min-cut worst (~+21%); quadratic ~+3-10%; prior nonlinear ~+12-14%.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = ispd2005Suite();
  if (fastMode(argc, argv)) suite.resize(3);

  std::printf("=== Table I: ISPD-2005-like suite (HPWL x1e3, rho_t = 1.0) ===\n");
  std::printf("%-22s %10s %10s %10s %10s   legal\n", "circuit", "MinCut",
              "Quad", "Bell", "ePlace");

  std::vector<double> hp[4], rt[4];
  for (const auto& spec : suite) {
    const RunMetrics m[4] = {runMinCut(spec, ctx), runQuadratic(spec, ctx),
                             runBell(spec, ctx), runEplace(spec, ctx)};
    for (int p = 0; p < 4; ++p) {
      hp[p].push_back(m[p].hpwl);
      rt[p].push_back(m[p].seconds);
    }
    std::printf("%-22s %10.2f %10.2f %10.2f %10.2f   %c%c%c%c\n",
                spec.name.c_str(), m[0].hpwl / 1e3, m[1].hpwl / 1e3,
                m[2].hpwl / 1e3, m[3].hpwl / 1e3, m[0].legal ? 'y' : 'n',
                m[1].legal ? 'y' : 'n', m[2].legal ? 'y' : 'n',
                m[3].legal ? 'y' : 'n');
  }

  std::printf("\n%-22s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n", "avg HPWL vs ePlace",
              (meanRatio(hp[0], hp[3]) - 1.0) * 100.0,
              (meanRatio(hp[1], hp[3]) - 1.0) * 100.0,
              (meanRatio(hp[2], hp[3]) - 1.0) * 100.0, 0.0);
  std::printf("%-22s %9.2fx %9.2fx %9.2fx %9.2fx\n", "avg runtime vs ePlace",
              meanRatio(rt[0], rt[3]), meanRatio(rt[1], rt[3]),
              meanRatio(rt[2], rt[3]), 1.0);
  std::printf(
      "\npaper Table I: min-cut +21.1%%, quadratic +2.8..10%%, prior "
      "nonlinear +12..14%%, ePlace best on 8/8.\n");
  return 0;
}
