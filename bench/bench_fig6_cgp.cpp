// Fig. 6 reproduction: distribution of standard cells and fillers before
// and after cGP (macros fixed after mLG) on MMS ADAPTEC1-like. Writes
// fig6_before.ppm / fig6_after.ppm with the W / O annotations.
//
// Paper expectation (Fig. 6): cGP slightly *reduces* wirelength
// (64.36e6 -> 63.04e6) while overlap stays controlled — the filler-only
// prelude relocates fillers out of the macros so cells need not pay
// wirelength for density.
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

  FillerSet fillers;
  GpResult mgpRes;
  {
    GlobalPlacer gp(db, db.movable(), {}, ctx);
    gp.makeFillersFromDb();
    mgpRes = gp.run();
    fillers = gp.fillers();
  }
  legalizeMacros(db, ctx);
  for (auto& o : db.objects) {
    if (o.kind == ObjKind::kMacro) o.fixed = true;
  }
  db.finalize();

  GpConfig cfg;
  const int m = std::max(1, mgpRes.iterations / 10);
  cfg.initialLambda =
      mgpRes.finalLambda * std::pow(kLambdaMultMax, -static_cast<double>(m));
  GlobalPlacer cgp(db, db.movable(), cfg, ctx);
  cgp.setFillers(fillers);
  cgp.runFillerOnly(20);

  const double wBefore = hpwl(db);
  const double oBefore = gridOverlapArea(db, false, 256, 256);
  auto plotWithFillers = [&](const char* path) {
    const auto& f = cgp.fillers();
    plotLayout(db, path, ctx, f.cx, f.cy, std::vector<double>(f.size(), f.w),
               std::vector<double>(f.size(), f.h));
  };
  plotWithFillers("fig6_before.ppm");

  const GpResult res = cgp.run();
  const double wAfter = hpwl(db);
  const double oAfter = gridOverlapArea(db, false, 256, 256);
  plotWithFillers("fig6_after.ppm");

  std::printf("=== Fig. 6: cGP before/after (mms_adaptec1s) ===\n");
  std::printf("%-8s %12s %12s\n", "", "W(HPWL)", "O(overlap)");
  std::printf("%-8s %12.4g %12.4g\n", "before", wBefore, oBefore);
  std::printf("%-8s %12.4g %12.4g  (%d iterations)\n", "after", wAfter,
              oAfter, res.iterations);

  const bool shape = wAfter < 1.05 * wBefore && res.finalOverflow <= 0.12;
  std::printf(
      "shape check (W roughly kept or reduced, tau back to <=0.1): %s\n",
              shape ? "PASS" : "FAIL");
  std::printf("paper Fig. 6: W 64.36e6 -> 63.04e6 in 51 iterations with "
              "overlap essentially unchanged.\n");
  return shape ? 0 : 1;
}
