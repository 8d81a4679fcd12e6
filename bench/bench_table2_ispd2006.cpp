// Table II reproduction: scaled HPWL (sHPWL = HPWL * (1 + 0.01 * tau_avg%)),
// runtime and density overflow on the ISPD-2006-like suite (benchmark-
// specific rho_t < 1).
//
// Paper expectation (Table II): ePlace best sHPWL on 7/8 and the smallest
// density overflow of all placers except Capo (which pays +43.7%
// wirelength for it); quadratic ~+5..16%, prior nonlinear ~+8..18%.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  auto suite = ispd2006Suite();
  if (fastMode(argc, argv)) suite.resize(3);

  std::printf(
      "=== Table II: ISPD-2006-like suite (scaled HPWL x1e3, rho_t per "
      "circuit) ===\n");
  std::printf("%-22s %5s %10s %10s %10s %10s\n", "circuit", "rho_t", "MinCut",
              "Quad", "Bell", "ePlace");

  std::vector<double> shp[4], rt[4], ovf[4];
  for (const auto& spec : suite) {
    const RunMetrics m[4] = {runMinCut(spec, ctx), runQuadratic(spec, ctx),
                             runBell(spec, ctx), runEplace(spec, ctx)};
    for (int p = 0; p < 4; ++p) {
      shp[p].push_back(m[p].scaledHpwl);
      rt[p].push_back(m[p].seconds);
      ovf[p].push_back(std::max(m[p].overflow, 1e-4));
    }
    std::printf("%-22s %5.2f %10.2f %10.2f %10.2f %10.2f\n", spec.name.c_str(),
                spec.targetDensity, m[0].scaledHpwl / 1e3,
                m[1].scaledHpwl / 1e3, m[2].scaledHpwl / 1e3,
                m[3].scaledHpwl / 1e3);
  }

  std::printf("\n%-22s %15.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
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
      "\npaper Table II: quadratic +4.6..16%%, prior nonlinear +7.7..18%%, "
      "min-cut +43.7%%; ePlace best sHPWL on 7/8 and lowest overflow "
      "(others 4x-14x). NOTE: overflow ratios here are ~1 by construction -- all placers share this repo's legalization finish, so final overflow reflects the shared legalizer, not the GP engines (see EXPERIMENTS.md).\n");
  return 0;
}
