// FlowSupervisor — crash-safe, self-healing execution of the ePlace flow.
//
// Production runs of the mixed-size pipeline (mIP -> mGP -> mLG -> cGP ->
// cDP) are long enough that a crash, an OOM kill, or one misbehaving stage
// must not cost the whole run. The supervisor is the only driver of the
// stage functions (eplace/flow.h); a SupervisorConfig policy decides how
// much of the following wraps each one (plainPolicy() keeps the gates and
// drops retries, fallbacks and snapshots):
//
//   * durable checkpoints — versioned, CRC-protected snapshots
//     (util/snapshot.h; payload and file ring in eplace/checkpoint.h)
//     written atomically at every stage boundary and,
//     inside the GP stages, every `saveEvery` iterations. A killed run
//     restarts with `resumeDir` set and continues from the newest valid
//     snapshot; a mid-GP snapshot resumes the exact iteration trajectory
//     bit-exactly. Corrupt (truncated / bit-flipped) snapshots are detected
//     by checksum and skipped in favor of the previous good one.
//   * one wall-clock deadline — the context's: the GP loop stops at the
//     first iteration past it, and no stage starts another attempt.
//   * bounded retries with perturbed parameters — relaxed target overflow
//     and re-seeded fillers for GP stages, a re-seeded annealer with more
//     outer iterations for mLG, jittered cell positions for legalization.
//   * fallbacks — greedy Tetris-only legalization when the Abacus-style
//     legalizer fails its gate; detail placement is rolled back
//     (cDP "fallback") when it regresses HPWL or breaks legality.
//   * inter-stage invariant gates — all movables finite and in-core after
//     every stage; zero macro overlap after mLG (a stage note when it
//     fails, not a run failure); full row/site/overlap
//     legality after legalization and detail; HPWL-regression caps. A gate
//     failure rolls the DB back to the stage-entry (or snapshot) state
//     instead of letting corruption propagate silently.
//
// Per-stage outcomes (attempts, fallbacks, time, status) are collected in a
// SupervisorReport and summarized at flow end. Policy and format details:
// docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "eplace/flow.h"
#include "util/run_record.h"
#include "util/status.h"

namespace ep {

const char* flowStageName(FlowStage s);

/// One streaming progress notification from the supervisor. The serving
/// layer forwards these to watchers as NDJSON events; a CLI could render a
/// progress bar from them. Emitted synchronously on the supervisor's driver
/// thread — handlers must be cheap and must not throw.
struct SupervisorEvent {
  enum class Kind : std::uint8_t {
    kStageStart,   ///< about to run `stage`
    kStageFinish,  ///< `stage` accepted (attempts/seconds/status populated)
    kSnapshot,     ///< durable snapshot `snapshotSeq` written toward `stage`
    kResume,       ///< run restored from a snapshot; `stage` is the cursor
    kSnapshotFailed,  ///< a checkpoint could not be written (`status` says
                      ///< why); the run continues un-checkpointed and
                      ///< retries at the next interval unless the failure
                      ///< is persistent (ENOSPC), which degrades the run
                      ///< to snapshot-less mode
  };
  Kind kind = Kind::kStageStart;
  FlowStage stage = FlowStage::kMip;
  int attempts = 0;      ///< attempts consumed (finish events)
  double seconds = 0.0;  ///< stage wall seconds (finish events)
  Status status;         ///< accepted stage outcome (finish events)
  bool fellBack = false;
  int snapshotSeq = -1;  ///< file sequence number (snapshot events)
};

/// "stage_start" / "stage_finish" / "snapshot" / "resume" /
/// "snapshot_failed".
const char* supervisorEventKindName(SupervisorEvent::Kind k);

using SupervisorProgressFn = std::function<void(const SupervisorEvent&)>;

/// Multilevel V-cycle (docs/SCALING.md). When enabled and the design has at
/// least `minMovable` movables, the supervisor builds a cluster ladder
/// (src/cluster) after mIP and replaces the single flat mGP with
/// mGP@Lk -> uncoarsen -> mGP@Lk-1 -> ... -> uncoarsen -> flat mGP. Coarse
/// levels are cheap seeds: capped iterations, a relaxed overflow target
/// (0.25, floored at GpConfig::targetOverflow), and a per-level
/// finite-in-core gate that rolls a diverged level back to its
/// uncoarsened seed instead of propagating garbage. Clustering is serial
/// and the coarse GP runs use the same thread-count-deterministic kernels,
/// so the full V-cycle stays bit-identical at any thread count, and the
/// snapshot stream carries the active level for bit-exact kill-9 resume
/// mid-ladder.
struct MultilevelConfig {
  bool enabled = false;
  /// Engage threshold: below this many movables the flat path wins.
  std::size_t minMovable = 10000;
  ClusterConfig cluster;
  /// Iteration cap per coarse level (a seed, not a final placement).
  int levelMaxIterations = 300;
};

/// Attempts are first try + retries per stage. mIP has no count: it is
/// deterministic (a retry would not differ) and runs once behind the
/// finite/in-core gate. The only wall-clock limit is the context's deadline
/// (RuntimeOptions::wallBudgetSeconds): no retry starts once it has passed.
struct SupervisorConfig {
  int mgpAttempts = 2;
  int mlgAttempts = 3;
  int cgpAttempts = 2;
  int cdpAttempts = 2;
  /// Directory for durable snapshots; empty disables checkpointing.
  std::string snapshotDir;
  /// Resume from the newest valid snapshot in this directory (then keep
  /// checkpointing into `snapshotDir`). Empty = fresh run.
  std::string resumeDir;
  /// GP iterations between mid-stage snapshots (0 = boundaries only).
  int saveEvery = 0;
  /// Snapshot files retained in the directory (ring; oldest pruned; see
  /// eplace/checkpoint.h).
  int keepSnapshots = 4;
  bool allowFallbacks = true;
  /// Streaming progress hook (stage boundaries, snapshots, resume). Empty =
  /// no notifications. See SupervisorEvent for the callback contract.
  SupervisorProgressFn onProgress;
  /// Multilevel V-cycle for large designs (off by default).
  MultilevelConfig multilevel;
};

/// The plain flow of Fig. 1 as a policy: one attempt per stage, no
/// fallbacks, no snapshots. The invariant gates still run; with no retry
/// left, a failed gate rolls its stage back and reports it.
SupervisorConfig plainPolicy();

/// Outcome of one supervised stage (one row of the end-of-flow report).
/// Each coarse V-cycle level adds a kMgp row with its level index, ahead of
/// the flat mGP row.
struct StageReport {
  FlowStage stage = FlowStage::kMip;
  int level = -1;  ///< coarse V-cycle level ("mGP@L<k>"); -1 = flat stage
  int attempts = 0;
  bool fellBack = false;  ///< fallback path produced the accepted result
  bool resumed = false;   ///< satisfied from a snapshot, not executed
  double seconds = 0.0;
  Status status;  ///< final accepted outcome (OK even after retries)
  std::string note;
};

struct SupervisorReport {
  std::vector<StageReport> stages;
  int snapshotsWritten = 0;
  int snapshotsRejected = 0;  ///< corrupt/mismatched files skipped on resume
  bool resumed = false;
  FlowStage resumeStage = FlowStage::kMip;
  /// Human-readable per-stage table (logged at flow end, printed by the CLI).
  [[nodiscard]] std::string summary() const;
};

/// Runs the flow on `db` in place under the `sup` policy. Sanitizes and
/// validates first (kInvalidInput without placing anything when the
/// instance is unusable). A flow that ran but degraded returns OK here with
/// the first failing stage's typed status in FlowResult::status and the
/// per-stage story in `*report` when non-null. An exception escaping a
/// stage comes back as kInternal (kResourceExhausted for a memory-budget
/// breach outside the GP degradation ladder). `ctx` supplies the thread
/// pool, fault injector, log sink and deadline for every stage (its
/// injector also drives the "snapshot.write" site).
StatusOr<FlowResult> runSupervisedFlow(PlacementDB& db, const FlowConfig& cfg,
                                       RuntimeContext& ctx,
                                       const SupervisorConfig& sup = {},
                                       SupervisorReport* report = nullptr);

/// Assembles the structured run record (util/run_record.h) for a finished
/// flow: per-stage metrics from `res`, retry and snapshot counts from
/// `report`, recovery/rollback/snapshot counters and the stats dump from
/// `ctx`'s registry, fingerprint/seed/threads from the input and context.
/// A row's `snapshots` counts the snapshots whose cursor is that stage (the
/// boundary snapshot leading into it, and any taken inside it), so the
/// last one, cursor "done", counts on no row. Lives
/// here — not in util — because it reads PlacementDB and FlowResult, which
/// the util layer must not know about.
RunRecord buildRunRecord(const PlacementDB& db, const FlowResult& res,
                         const SupervisorReport& report, RuntimeContext& ctx,
                         bool supervised = true);

}  // namespace ep
