// Fig. 3 reproduction: snapshots of mGP progression on MMS ADAPTEC1-like
// (standard cells red, macros black, fillers blue). Writes fig3_iter<k>.ppm
// images and prints the W (wirelength) / O (overlap) values the paper
// annotates under each snapshot.
//
// Paper expectation (Fig. 3): at iter 0 everything is piled near the
// center; by ~iter 80 rough spreading; by the final iteration cells and
// fillers tile the region evenly and macros have (near-)legal positions,
// with W growing moderately while O collapses.
#include "common.h"
#include "eval/plot.h"
#include "qp/initial_place.h"

int main() {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  const GenSpec spec = suiteSpec("mms_adaptec1s");
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db, ctx);

  GpConfig cfg;
  GlobalPlacer gp(db, db.movable(), cfg, ctx);
  gp.makeFillersFromDb();

  const std::vector<int> marks{0, 25, 80, 140, 200};
  std::printf("=== Fig. 3: mGP snapshots (mms_adaptec1s) ===\n");
  std::printf("%6s %12s %12s %10s\n", "iter", "W(HPWL)", "O(overlap)", "tau");

  double firstO = -1.0, lastW = 0.0, lastO = 0.0;
  auto snapshot = [&](int iter, double hpwlNow, double tau) {
    const double o = gridOverlapArea(db, false, 256, 256);
    const auto& f = gp.fillers();
    char path[64];
    std::snprintf(path, sizeof path, "fig3_iter%03d.ppm", iter);
    plotLayout(db, path, ctx, f.cx, f.cy, std::vector<double>(f.size(), f.w),
               std::vector<double>(f.size(), f.h));
    std::printf("%6d %12.4g %12.4g %10.3f   -> %s\n", iter, hpwlNow, o, tau,
                path);
    if (firstO < 0.0) firstO = o;
    lastW = hpwlNow;
    lastO = o;
  };

  const GpResult res = gp.run([&](const GpIterTrace& t) {
    for (int m : marks) {
      if (t.iter == m) snapshot(t.iter, t.hpwl, t.overflow);
    }
  });
  snapshot(res.iterations, res.finalHpwl, res.finalOverflow);

  const bool shape = lastO < firstO / 3.0 && res.converged;
  std::printf("shape check (overlap collapses >3x, mGP converged): %s\n",
              shape ? "PASS" : "FAIL");
  std::printf(
      "paper Fig. 3: W 43.5e6 -> 63.4e6 while O 214e6 -> 16.5e6 over 265 "
      "iterations (same direction expected here at scale).\n");
  return shape ? 0 : 1;
}
