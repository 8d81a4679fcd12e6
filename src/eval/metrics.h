// Evaluation metrics matching the contest scripts' semantics:
//  * density overflow tau (ISPD 2005/2006 style, movable area beyond
//    rho_t-scaled free bin capacity, normalized by total movable area);
//  * scaled HPWL (ISPD 2006: sHPWL = HPWL * (1 + 0.01 * tau_avg%), where
//    tau_avg% is the percent overflow relative to total bin capacity — see
//    DESIGN.md for the exact form we standardize on);
//  * object overlap (the OVLP series of Figs. 2/3): grid-based total
//    overlapping area (exact pairwise overlap of a million-cell snapshot is
//    quadratic; the grid form is the standard proxy and is exact in the
//    limit of fine bins);
//  * exact pairwise overlap for small subsets (macros, Fig. 5);
//  * row/site legality checking for final layouts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/netlist.h"

namespace ep {

struct DensityReport {
  double overflow = 0.0;    ///< tau in [0, ~1]
  double maxDensity = 0.0;  ///< max bin occupancy (incl. fixed)
};

/// Exact-footprint density overflow of the movable objects in `db` against
/// rho_t-scaled free capacity. nx/ny default to the ePlace grid rule.
DensityReport densityOverflow(const PlacementDB& db, std::size_t nx = 0,
                              std::size_t ny = 0);

/// ISPD-2006 scaled HPWL. For rho_t >= 1 this equals plain HPWL.
double scaledHpwl(const PlacementDB& db);

/// Grid-based total overlap area among the given objects (movables by
/// default): sum over fine bins of max(0, stamped area - bin area).
double gridOverlapArea(const PlacementDB& db, bool includeFixed = false,
                       std::size_t nx = 0, std::size_t ny = 0);

/// Exact total pairwise overlap area among the objects with the given
/// indices (sweep over x). Quadratic in the worst case — intended for
/// macro sets.
double pairwiseOverlapArea(const PlacementDB& db,
                           std::span<const std::int32_t> indices);

/// Total standard-cell area covered by macros — the D(v) term of the mLG
/// cost (Eq. 14).
double macroCellCoverArea(const PlacementDB& db);

struct LegalityReport {
  bool legal = false;
  int outOfRegion = 0;
  int offRow = 0;
  int offSite = 0;
  /// Overlapping pairs. 64-bit: an unspread placement (right after mIP) of
  /// n cells has up to n(n-1)/2 of them.
  std::int64_t overlaps = 0;
  std::string firstIssue;  ///< the first violation found, in check order
};

/// Checks the final layout: every movable inside the region; every movable
/// standard cell bottom-aligned to a row and left-aligned to a site; no two
/// placed objects (movable-movable or movable-fixed) overlapping. Overlaps
/// are found by an x-sweep in (lx, index) order; the sweep is quadratic
/// when many objects share an x-span, but only the first issue's text is
/// ever built.
LegalityReport checkLegality(const PlacementDB& db, double tol = 1e-6);

}  // namespace ep
