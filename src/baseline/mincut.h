// Recursive min-cut bisection placer (the Capo-category baseline of the
// paper's tables). Splits the region along its longer axis with
// area-proportional FM bipartitioning and terminal propagation, recursing
// until a few cells remain per region; leaves are placed at their region
// centers. Produces a *global* placement — the bench harness runs the same
// legalization/detail finish on every placer for fair table rows.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct MinCutResult {
  int partitions = 0;  ///< FM invocations
  int maxDepth = 0;
  double hpwl = 0.0;   ///< after placement
};

/// Places all movable objects of `db` (cells and macros alike). Overlap is
/// expected at leaf granularity; legalize afterwards.
MinCutResult minCutPlace(PlacementDB& db, RuntimeContext& ctx);

}  // namespace ep
