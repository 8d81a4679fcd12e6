// Mixed-size initial placement (mIP, Sec. III): quadratic wirelength
// minimization only — no spreading. Produces the low-wirelength /
// high-overlap seed v_mIP that mGP starts from.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

/// B2B rebuild count: mIP's outer iterations, recorded as its stage
/// iterations. mIP only seeds mGP, whose density term erases most of the
/// seed's structure: 2 rounds at a CG tolerance of 1e-3 reach the final
/// HPWL of 8 rounds at 1e-6 within the noise of mIP's jitter seed on the
/// ISPD 2005, ISPD 2006 and MMS suites, at a tenth of the work (the sweep
/// is in EXPERIMENTS.md, "mIP effort").
inline constexpr int kMipOuterIterations = 2;

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
