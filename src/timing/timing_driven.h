// Timing-driven placement — the paper's other future-work direction
// (Sec. VIII). The classic net-weighting loop: place, analyze timing,
// raise the weights of timing-critical nets (w = 1 + alpha * crit^2, the
// standard quadratic criticality weighting), place again. The smooth
// wirelength objective (Eq. 3/4) already honors net weights, so the whole
// ePlace engine becomes timing-aware with no optimizer changes.
#pragma once

#include "model/netlist.h"
#include "timing/sta.h"

namespace ep {

class RuntimeContext;

struct TimingDrivenConfig {
  int rounds = 2;          ///< reweight/replace iterations after the seed run
  double clockFactor = 1.05;  ///< clock = factor * seed-run critical path
};

struct TimingDrivenResult {
  double clockPeriod = 0.0;
  double wnsBefore = 0.0, wnsAfter = 0.0;
  double tnsBefore = 0.0, tnsAfter = 0.0;
  double maxDelayBefore = 0.0, maxDelayAfter = 0.0;
  double hpwlBefore = 0.0, hpwlAfter = 0.0;
  int rounds = 0;
  bool legal = false;
};

/// Places `db` timing-driven: a seed flow run fixes the clock target, then
/// each round reweights nets by criticality and re-places. Net weights are
/// restored to their input values before returning (the placement keeps the
/// benefit; the netlist stays unmodified). Every flow and STA run borrows
/// `ctx` (pool, faults, log, stats).
TimingDrivenResult timingDrivenPlace(PlacementDB& db, RuntimeContext& ctx,
                                     const TimingDrivenConfig& cfg = {});

}  // namespace ep
