// Durable checkpoints of the supervised flow (eplace/supervisor.h): what a
// snapshot file holds, and where a run's snapshot files live.
//
// Payload: a util/snapshot container with the sections meta, mlevel (only
// inside a coarse V-cycle level), positions, fillers, rng, env (provenance,
// never read back) and optimizer (only mid-GP). Their fields and order are
// the wire format (docs/ROBUSTNESS.md); decodeCheckpoint() checks a
// snapshot against the instance before anything is restored from it.
//
// Ring: a run's snapshots are <dir>/snap_%06d.epsnap, numbered upward from
// one past the highest number already in the directory; the newest N are
// kept. A file whose number does not fit the sequence is not part of the
// ring: it is never resumed from or pruned.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/status.h"

namespace ep {

/// A decoded snapshot, in the types the flow already uses.
struct Checkpoint {
  FlowStage next = FlowStage::kMip;  ///< stage a resumed run executes next
  bool mixedSize = false;
  bool macrosFrozen = false;
  /// The per-stage metrics, mGP iterations and final lambda, and the mGP
  /// and cGP status codes; every other field keeps its default.
  FlowResult res;
  std::vector<double> positions;  ///< capturePositions() layout
  FillerSet fillers;
  std::array<std::uint64_t, 4> rng{};
  bool hasGp = false;  ///< `gp` holds a mid-stage optimizer state
  GpCheckpointState gp;
  /// Coarse ladder level the run was inside; -1 = flat mGP or not in mGP.
  /// When >= 0, `levelPositions` and `levelFillers` hold that level's
  /// state (the ladder itself is rebuilt, never serialized).
  int level = -1;
  std::vector<double> levelPositions;
  FillerSet levelFillers;
};

/// Every object's position, interleaved lx,ly (the "positions" layout),
/// read from the view after syncing it with the DB.
std::vector<double> capturePositions(PlacementDB& db);

/// Writes positions in capturePositions() layout into the DB and the view.
void restorePositions(PlacementDB& db, const std::vector<double>& pos);

/// The snapshot of the supervisor's state. `gp` is the mid-stage optimizer
/// state (nullptr at a stage boundary). `level` >= 0 records the coarse
/// level the run is inside; with `levelDb` set, its positions and
/// `levelFillers` go into the "mlevel" section.
SnapshotData encodeCheckpoint(PlacementDB& db, const FlowState& st,
                              FlowStage next, bool macrosFrozen,
                              const Rng& jitter, const GpCheckpointState* gp,
                              int poolThreads, int level = -1,
                              PlacementDB* levelDb = nullptr,
                              const FillerSet* levelFillers = nullptr);

/// Decodes and validates a snapshot for `db`. kInvalidInput when a section
/// is missing or malformed, the snapshot is for another instance, the
/// stage cursor is out of range, a level cursor has no "mlevel" section, a
/// position is non-finite, or the optimizer vectors differ in length.
StatusOr<Checkpoint> decodeCheckpoint(const SnapshotData& snap,
                                      const PlacementDB& db);

/// readSnapshotFile() then decodeCheckpoint().
StatusOr<Checkpoint> readCheckpoint(const std::string& path,
                                    const PlacementDB& db);

/// Path of snapshot `seq` in `dir`.
std::string snapshotPath(const std::string& dir, int seq);

/// Paths of the snapshots in `dir`, newest (highest number) first.
std::vector<std::string> listSnapshots(const std::string& dir);

/// The number for the next snapshot written to `dir`: one past the
/// highest present, 0 for an empty or missing directory.
int nextSnapshotSeq(const std::string& dir);

/// Deletes all but the `keep` newest snapshots in `dir` (at least one is
/// always kept).
void pruneSnapshots(const std::string& dir, int keep);

}  // namespace ep
