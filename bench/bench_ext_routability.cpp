// Extension experiment: routability-driven refinement (the paper's stated
// future work, Sec. VIII). Measures the RUDY hotspot score and wirelength
// before/after inflation-driven re-placement on high-locality circuits
// (tight clusters create the congestion knots that routers choke on).
#include "common.h"
#include "route/routability.h"

int main(int argc, char** argv) {
  using namespace ep;
  using namespace ep::bench;
  RuntimeContext ctx;
  const int count = fastMode(argc, argv) ? 1 : 3;

  std::printf("=== Extension: routability-driven refinement (RUDY) ===\n");
  std::printf("%-16s %12s %12s %12s %12s %8s\n", "circuit", "hotspot-pre",
              "hotspot-post", "HPWL-pre", "HPWL-post", "legal");

  bool shape = true;
  for (int i = 0; i < count; ++i) {
    GenSpec spec;
    spec.name = "route" + std::to_string(i);
    spec.numCells = 1200 + 400 * i;
    spec.locality = 0.9;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    PlacementDB db = generateCircuit(spec);
    runSupervisedFlow(db, {}, ctx, plainPolicy());
    const RoutabilityResult res = routabilityDrivenRefine(db, ctx);
    std::printf("%-16s %12.4g %12.4g %12.4g %12.4g %8s\n", spec.name.c_str(),
                res.hotspotBefore, res.hotspotAfter, res.hpwlBefore,
                res.hpwlAfter, res.legal ? "yes" : "no");
    shape = shape && res.legal && res.hotspotAfter <= res.hotspotBefore * 1.02;
  }

  std::printf("\nshape check (hotspot relieved or unchanged, layout stays "
              "legal): %s\n", shape ? "PASS" : "FAIL");
  std::printf("context: congestion-for-wirelength trading is the expected "
              "behaviour of routability modes (cf. RePlAce's extension of "
              "this algorithm).\n");
  return shape ? 0 : 1;
}
