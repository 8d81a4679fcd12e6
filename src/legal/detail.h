// Detail placement — the discrete optimization half of cDP. Operates on a
// legal layout and keeps it legal:
//   * per-segment local reordering: sliding windows of consecutive cells are
//     permuted and re-packed toward their ideal positions;
//   * global same-width cell swapping between rows when it reduces HPWL.
// Modeled on the detail placer role NTUplace3 fills for the paper's flow.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct DetailConfig {
  int maxPasses = 3;
};

struct DetailResult {
  double hpwlBefore = 0.0;
  double hpwlAfter = 0.0;
  long reorders = 0;  ///< accepted window reorders
  long swaps = 0;     ///< accepted cross-row swaps
  int passes = 0;
};

/// Discretely improves the legal layout of `db` in place. Requires a legal
/// input (legalizeCells); the result stays legal.
DetailResult detailPlace(PlacementDB& db, RuntimeContext& ctx,
                         const DetailConfig& cfg = {});

}  // namespace ep
