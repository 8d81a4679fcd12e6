// Routability-driven placement — the extension the paper's conclusion
// names as future work. The standard recipe (used by RePlAce's routability
// mode): estimate congestion with RUDY, *inflate* cells that sit in
// hotspots so the density force thins them out, re-run global placement
// with the inflated footprints, then restore true sizes and legalize.
#pragma once

#include "model/netlist.h"
#include "route/rudy.h"

namespace ep {

class RuntimeContext;

struct RoutabilityResult {
  double hotspotBefore = 0.0;
  double hotspotAfter = 0.0;
  double peakBefore = 0.0;
  double peakAfter = 0.0;
  double hpwlBefore = 0.0;
  double hpwlAfter = 0.0;
  int rounds = 0;
  bool legal = false;
};

/// Takes a *placed* (post-flow) design and trades wirelength for routing
/// hotspot relief. Standard cells only; macros stay fixed. The layout is
/// legalized again before returning. A round that raises the hotspot score
/// is undone: the result is the lowest-hotspot layout seen, the input
/// included. The re-placement, legalization and
/// detail passes borrow `ctx` (pool, faults, log, stats).
RoutabilityResult routabilityDrivenRefine(PlacementDB& db,
                                          RuntimeContext& ctx);

}  // namespace ep
