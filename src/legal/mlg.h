// mLG — annealing-based macro legalization (Sec. VI-A).
//
// Unlike floorplanning annealers that perturb an expression and then realize
// it, mLG drives macro motion directly: the mGP layout is near-legal, so
// only local shifts are needed and the shrunk design space suits SA.
//
// Cost (Eq. 14):  f = W(v) + mu_D * D(v) + mu_O * O_m(v)
//   W    total HPWL,
//   D    standard-cell area covered by macros (converts to wirelength later,
//        so mu_D = W/D statically equalizes the two),
//   O_m  macro overlap (with other macros and with fixed obstacles) — the
//        constraint; mu_O scales by kappa per outer iteration.
//
// Schedules exactly as published: temperature t_{j,k} = dfmax(j,k)/ln 2 with
// dfmax interpolated linearly from 0.03*kappa^j down to 1e-4*kappa^j across
// the inner loop (relative cost units); motion radius r_{j,0} =
// (R_x/sqrt(m)) * 0.05 * kappa^j, kappa = 1.5. These schedule constants
// live in mlg.cpp. Standard cells stay fixed.
// Macro positions snap to the row/site grid when rows exist, so a zero-
// overlap outcome is a legal macro layout.
#pragma once

#include <cstdint>

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct MlgConfig {
  int maxOuterIterations = 20;
  /// Extension (paper Sec. III: ePlace "has the flexibility to integrate
  /// the rotational and flipping gradients" but disables them for contest
  /// protocol): allow 90-degree macro rotation / x-mirroring as SA moves.
  /// Pin offsets are transformed along with the shape.
  bool allowRotation = false;
  bool allowFlipping = false;
  double reorientProb = 0.15;  ///< chance a move is a reorientation
  std::uint64_t seed = 12345;
};

struct MlgResult {
  double hpwlBefore = 0.0, hpwlAfter = 0.0;
  double coverBefore = 0.0, coverAfter = 0.0;    // D(v)
  double overlapBefore = 0.0, overlapAfter = 0.0; // O_m(v)
  int outerIterations = 0;
  long attempted = 0, accepted = 0;
  bool legal = false;  ///< O_m == 0 at exit
};

/// Legalizes the movable macros of `db` in place. Standard cells are not
/// touched. Returns the before/after metrics of Fig. 5.
MlgResult legalizeMacros(PlacementDB& db, RuntimeContext& ctx,
                         const MlgConfig& cfg = {});

}  // namespace ep
