// Static timing analysis "lite" — the substrate for the timing-driven
// extension the paper's conclusion names as future work.
//
// Model: each net's output pin drives its input pins; the edge delay is the
// Manhattan distance between the two pin locations (linear wire-delay
// model, i.e. buffered interconnect, the standard abstraction at the
// placement level). Objects are combinational: arrival propagates straight
// through. Start points are objects with no incoming edges (e.g. input
// pads); end points have no outgoing edges. Combinational cycles — which a
// synthetic or malformed netlist may contain, real designs break them with
// registers — are cut deterministically during levelization and reported.
#pragma once

#include <cstdint>
#include <vector>

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct StaResult {
  /// Arrival time per object (worst input-path delay).
  std::vector<double> arrival;
  /// Required time per object (against the clock period).
  std::vector<double> required;
  /// Worst slack over the edges of each net (one entry per net; nets
  /// without a timing edge get +inf).
  std::vector<double> netSlack;
  double clockPeriod = 0.0;
  double maxDelay = 0.0;  ///< critical-path delay
  double wns = 0.0;       ///< worst negative slack (0 when all paths meet)
  double tns = 0.0;       ///< total negative slack (sum over endpoints)
  int cutCycleEdges = 0;  ///< combinational-loop edges ignored

  /// Criticality of a net in [0, 1]: 1 = on the critical path.
  [[nodiscard]] double criticality(std::size_t net) const;
};

/// Runs STA on the current placement. `clockPeriod` <= 0 means "auto":
/// 1.0x the critical-path delay (so wns = 0 and criticalities are relative).
/// Cut loop edges are logged (debug) through `ctx`.
StaResult staAnalyze(const PlacementDB& db, RuntimeContext& ctx,
                     double clockPeriod = 0.0);

}  // namespace ep
