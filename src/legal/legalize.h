// Standard-cell legalization: Tetris-style greedy row/segment assignment
// followed by Abacus-style per-segment clumping (least-squares positions
// under ordering constraints), with site snapping. This is the legalization
// half of cDP (the flow's final stage); macros and fixed objects are
// obstacles and must already be overlap-free (mLG guarantees that).
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct LegalizeResult {
  bool success = false;        ///< every movable std cell was placed
  double hpwlBefore = 0.0;
  double hpwlAfter = 0.0;
  double avgDisplacement = 0.0;
  double maxDisplacement = 0.0;
  int unplaced = 0;
};

/// Legalizes all movable standard cells of `db` onto rows/sites in place.
/// Movable cells must have height equal to the row height (single-row
/// cells, as in the ISPD netlists); movable macros must have been fixed by
/// mLG beforehand.
LegalizeResult legalizeCells(PlacementDB& db, RuntimeContext& ctx);

/// Fallback legalizer: the same Tetris-style greedy row/segment assignment
/// but WITHOUT the Abacus-style clumping refinement. Worse HPWL, but fewer
/// moving parts — the FlowSupervisor switches to it when legalizeCells
/// fails an invariant gate or exceeds its budget (docs/ROBUSTNESS.md). The
/// "legalize.displace" fault site lives in the clumping phase only, so this
/// path stays clean under injection.
LegalizeResult greedyLegalizeCells(PlacementDB& db, RuntimeContext& ctx);

}  // namespace ep
