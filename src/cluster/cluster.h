// Multilevel clustering (coarsening/uncoarsening) for the V-cycle flow.
//
// Production analytic placers (NTUplace, mPL, RePlAce) reach million-cell
// designs by running the expensive global-placement engine on a coarsened
// hypergraph and progressively uncoarsening. This module provides that
// layer for ePlace:
//
//   * buildClusterLadder() — deterministic best-choice coarsening. Each
//     level matches movable standard cells to their highest-affinity
//     unmatched neighbor (affinity = sum of w_e/(|e|-1) over shared nets,
//     the classic clique-model score) and collapses matched pairs into
//     clusters whose area is the exact sum of the member areas. Fixed
//     objects, IO pads and movable macros pass through 1:1, so the fixed
//     charge seen by the density model is identical at every level. Nets
//     are rewired to clusters; pins that collapse onto the same cluster
//     are merged (cluster pins sit at the cluster center, offset 0 — the
//     members will be re-seeded there on uncoarsening) and nets left with
//     fewer than two distinct endpoints are dropped.
//   * uncoarsenPositions() — seeds level k-1 positions from the level-k
//     placement: every pass-through object copies its coarse position
//     bit-exactly, every multi-member cluster places its members at the
//     cluster center.
//
// The coarsening is serial by construction, so its output is bit-identical
// at any thread count — the determinism contract every kernel in this repo
// already honors. See docs/SCALING.md for the V-cycle picture.
#pragma once

#include <cstdint>
#include <vector>

#include "model/netlist.h"
#include "util/status.h"

namespace ep {

class RuntimeContext;

struct ClusterConfig {
  /// Ladder depth cap (levels actually built also depend on the stop ratio
  /// in cluster.cpp and the floor below).
  std::size_t maxLevels = 6;
  /// Never coarsen below this many movable objects — the coarsest level
  /// must stay large enough for the density model to be meaningful.
  std::size_t minMovable = 3000;
};

/// One coarsening step. `coarse` is a fully finalized PlacementDB built
/// from the fine level (the flat instance for levels[0], the previous
/// level's `coarse` otherwise).
struct ClusterLevel {
  PlacementDB coarse;
  /// fine object id -> coarse object id (every fine object maps exactly
  /// once: movables to their cluster, pass-throughs to their copy).
  std::vector<std::int32_t> fineToCoarse;
  /// Members CSR over coarse object ids: fine ids merged into coarse
  /// object c are members[memberStart[c] .. memberStart[c+1]).
  std::vector<std::int32_t> memberStart;
  std::vector<std::int32_t> members;
  std::size_t fineObjects = 0;
  std::size_t fineMovable = 0;
  std::size_t fineNets = 0;
};

/// The coarsening ladder: levels[0] is built from the flat instance,
/// levels.back() is the coarsest. Empty when the instance was already at
/// or below the coarsening floor.
struct ClusterLadder {
  std::vector<ClusterLevel> levels;
  [[nodiscard]] bool empty() const { return levels.empty(); }
  [[nodiscard]] std::size_t depth() const { return levels.size(); }
};

/// Builds the ladder from a finalized, sanitized instance. Deterministic:
/// depends only on `db` and `cfg`, never on thread count or wall clock.
/// `ctx` supplies the log sink and stats registry and must be non-null; it
/// stays a pointer, unlike every other entry point's `RuntimeContext&`,
/// only because the repository benchmark calls this with `&s.context()`
/// and its sources change only with the benchmark. Fails with
/// kInvalidInput when `db` is not finalized/valid.
StatusOr<ClusterLadder> buildClusterLadder(const PlacementDB& db,
                                           const ClusterConfig& cfg,
                                           RuntimeContext* ctx);

/// Seeds fine-level positions from the coarse placement of `level`:
/// single-member coarse objects copy their position bit-exactly, clusters
/// place every member at the cluster center. `fine` must be the instance
/// the level was built from (object count is checked).
Status uncoarsenPositions(const ClusterLevel& level, PlacementDB& fine);

}  // namespace ep
