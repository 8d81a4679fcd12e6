// Physical-design extensions demo: the two future-work directions the
// paper names (Sec. VIII) running on top of the unchanged ePlace engine —
// timing-driven placement via criticality net weighting, and
// routability-driven refinement via RUDY congestion + cell inflation.
#include <cstdio>

#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "route/routability.h"
#include "timing/timing_driven.h"
#include "util/context.h"

int main() {
  ep::RuntimeContext ctx;
  ctx.log().setLevel(ep::LogLevel::kInfo);

  // --- Timing-driven placement ---
  {
    ep::GenSpec spec;
    spec.name = "timing_demo";
    spec.numCells = 1200;
    spec.seed = 51;
    ep::PlacementDB db = ep::generateCircuit(spec);

    ep::TimingDrivenConfig cfg;
    cfg.clockFactor = 0.9;  // clock 10% tighter than the seed critical path
    cfg.rounds = 2;
    const ep::TimingDrivenResult res = ep::timingDrivenPlace(db, ctx, cfg);
    std::printf(
        "timing-driven: clock %.4g | WNS %.4g -> %.4g | critical path "
        "%.4g -> %.4g | HPWL %+.2f%% | legal=%s\n",
        res.clockPeriod, res.wnsBefore, res.wnsAfter, res.maxDelayBefore,
        res.maxDelayAfter, (res.hpwlAfter / res.hpwlBefore - 1.0) * 100.0,
        res.legal ? "yes" : "no");
  }

  // --- Routability-driven refinement ---
  {
    ep::GenSpec spec;
    spec.name = "route_demo";
    spec.numCells = 1200;
    spec.locality = 0.9;  // tight clusters create congestion knots
    spec.seed = 52;
    ep::PlacementDB db = ep::generateCircuit(spec);
    ep::runSupervisedFlow(db, {}, ctx, ep::plainPolicy());

    const ep::RoutabilityResult res = ep::routabilityDrivenRefine(db, ctx);
    std::printf(
        "routability: hotspot %.4g -> %.4g | peak %.4g -> %.4g | HPWL "
        "%+.2f%% | rounds %d | legal=%s\n",
        res.hotspotBefore, res.hotspotAfter, res.peakBefore, res.peakAfter,
        (res.hpwlAfter / res.hpwlBefore - 1.0) * 100.0, res.rounds,
        res.legal ? "yes" : "no");
  }
  return 0;
}
