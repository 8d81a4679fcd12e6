// Bell-shape nonlinear placer — the APlace/NTUplace3-category baseline.
// Log-sum-exp wirelength plus the classic bell-shaped (Naylor) density
// penalty sum_b (D_b - T_b)^2, minimized by conjugate gradient with Armijo
// line search (the optimizer whose line-search cost Sec. V-A measures at
// >60% of runtime). Flat netlist — the clustering of the original tools is
// out of scope and only accelerates them, it does not change the comparison
// direction.
#pragma once

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct BellPlaceConfig {
  int maxOuterIterations = 12;
  int cgIterationsPerOuter = 60;
  /// Swap the optimizer under the *same* cost function: false = CG with
  /// Armijo line search (the prior-art configuration), true = Nesterov with
  /// Lipschitz steplength. Isolates the paper's optimizer contribution from
  /// its density-model contribution (see bench_ablation_optimizer).
  bool useNesterov = false;
};

struct BellPlaceResult {
  int outerIterations = 0;
  double finalOverflow = 0.0;
  double hpwl = 0.0;
  long gradEvals = 0;
  double lineSearchSeconds = 0.0;  ///< Sec. V-A experiment
  double optimizerSeconds = 0.0;
};

/// Globally places all movables of `db` (cells and macros alike).
BellPlaceResult bellPlace(PlacementDB& db, RuntimeContext& ctx,
                          const BellPlaceConfig& cfg = {});

}  // namespace ep
