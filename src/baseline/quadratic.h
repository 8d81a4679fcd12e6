// Quadratic placer with iterative spreading — the FastPlace/ComPLx-category
// baseline of the paper's tables. Alternates:
//   1. B2B quadratic wirelength solve with anchor pseudo-springs toward the
//      previous spreading targets (weight grows each iteration),
//   2. 1-D area-equalization spreading per axis (inverse-CDF remapping of
//      cell coordinates against the free-capacity profile, computed in
//      bands along the other axis).
// Stops when the density overflow reaches the target or the iteration cap.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct QuadraticPlaceConfig {
  int maxIterations = 30;
  double targetOverflow = 0.10;
};

struct QuadraticPlaceResult {
  int iterations = 0;
  double finalOverflow = 0.0;
  double hpwl = 0.0;
};

/// Globally places all movables of `db` (cells and macros alike).
QuadraticPlaceResult quadraticPlace(PlacementDB& db, RuntimeContext& ctx,
                                    const QuadraticPlaceConfig& cfg = {});

}  // namespace ep
