// Mixed-size initial placement (mIP, Sec. III): quadratic wirelength
// minimization only — no spreading. Produces the low-wirelength /
// high-overlap seed v_mIP that mGP starts from.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

/// B2B rebuild count: mIP's outer iterations, recorded as its stage
/// iterations.
inline constexpr int kMipOuterIterations = 8;

struct InitialPlaceResult {
  double hpwlBefore = 0.0;
  double hpwlAfter = 0.0;
  int totalCgIterations = 0;
};

/// Runs mIP: seeds every movable at the region center (with jitter), then
/// alternates B2B model construction and CG solves per axis. Updates object
/// positions in `db` (centers clamped into the region).
InitialPlaceResult quadraticInitialPlace(PlacementDB& db,
                                         RuntimeContext& ctx);

}  // namespace ep
