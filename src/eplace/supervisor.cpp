#include "eplace/supervisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "density/bingrid.h"
#include "eplace/checkpoint.h"
#include "util/context.h"
#include "util/io.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "wirelength/wl.h"

namespace ep {

const char* flowStageName(FlowStage s) {
  switch (s) {
    case FlowStage::kMip: return "mIP";
    case FlowStage::kMgp: return "mGP";
    case FlowStage::kMlg: return "mLG";
    case FlowStage::kCgp: return "cGP";
    case FlowStage::kCdp: return "cDP";
    case FlowStage::kDone: return "done";
  }
  return "?";
}

const char* supervisorEventKindName(SupervisorEvent::Kind k) {
  switch (k) {
    case SupervisorEvent::Kind::kStageStart: return "stage_start";
    case SupervisorEvent::Kind::kStageFinish: return "stage_finish";
    case SupervisorEvent::Kind::kSnapshot: return "snapshot";
    case SupervisorEvent::Kind::kResume: return "resume";
    case SupervisorEvent::Kind::kSnapshotFailed: return "snapshot_failed";
  }
  return "?";
}

namespace {

/// A GP retry relaxes the target overflow by this much per attempt.
constexpr double kOverflowRetryRelax = 0.05;
/// Legalization may end at most at this multiple of the pre-legal HPWL.
constexpr double kLegalizeHpwlCap = 2.0;
/// Detail placement may end at most at (1 + this) x the legalized HPWL.
constexpr double kDetailRegressionTol = 1e-9;
/// Seed of the retry-jitter RNG stream (saved in the "rng" section).
constexpr std::uint64_t kPerturbSeed = 0x5EEDCAFEULL;
/// Overflow target of a coarse V-cycle level, floored at the flat target:
/// a coarse level is only a seed for the next-finer one.
constexpr double kLevelTargetOverflow = 0.25;

/// Invariant gate shared by every stage: all movables finite and inside the
/// core region (both GP phases and mIP clamp into the region, so any
/// violation means corruption, not normal slack).
bool movablesFiniteInCore(const PlacementDB& db) {
  const double tol =
      1e-6 * std::max(1.0, std::max(db.region.width(), db.region.height()));
  const Rect bounds = db.region.expanded(tol);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (!std::isfinite(o.lx) || !std::isfinite(o.ly)) return false;
    if (!bounds.contains(o.rect())) return false;
  }
  return true;
}

void appendNote(StageReport& rep, const std::string& note) {
  if (!rep.note.empty()) rep.note += "; ";
  rep.note += note;
}

// --- the supervisor itself -------------------------------------------------

struct Supervisor {
  RuntimeContext& rc;
  PlacementDB& db;
  const SupervisorConfig& sup;
  SupervisorReport& report;
  FlowState st;
  Rng jitter;
  bool macrosFrozen = false;
  int nextSeq = 0;
  /// The snapshot this run resumed from. Its optimizer state (`hasGp`) is
  /// consumed by the first attempt of the stage and ladder level it
  /// belongs to; its level cursor picks where the ladder continues.
  Checkpoint resume;
  /// Level currently running/checkpointing (drives the "mlevel" section).
  int curLevel = -1;
  PlacementDB* curLevelDb = nullptr;
  FillerSet curLevelFillers;
  /// Checkpoint retention; starts at sup.keepSnapshots and is reduced to 1
  /// when a memory-budget retry needs headroom (degraded retention).
  int keepSnapshots;
  /// Consecutive checkpoint write failures; 3 in a row (or one persistent
  /// ENOSPC) degrades the run to snapshot-less mode.
  int snapFailures = 0;
  bool snapshotsDisabled = false;
  /// A GP stage exhausted its budget-degradation ladder: stop the flow
  /// cleanly instead of re-breaching in the next stage.
  bool memAborted = false;

  Supervisor(RuntimeContext& rcIn, PlacementDB& database,
             const FlowConfig& cfg, const SupervisorConfig& supervision,
             SupervisorReport& rep)
      : rc(rcIn),
        db(database),
        sup(supervision),
        report(rep),
        jitter(kPerturbSeed),
        keepSnapshots(supervision.keepSnapshots) {
    st.cfg = cfg;
    st.ctx = &rc;
  }

  void emit(const SupervisorEvent& ev) {
    if (sup.onProgress) sup.onProgress(ev);
  }

  /// A stage may start another attempt only while the context is neither
  /// cancelled nor past its deadline.
  [[nodiscard]] bool budgetLeft() const {
    return !rc.cancelled() && !rc.deadlineExceeded();
  }

  /// Serialization cost of the next checkpoint, charged against the memory
  /// budget while the buffers are live. Dominated by positions + optimizer
  /// vectors; the 4 KiB pad covers headers/CRCs/filler metadata.
  [[nodiscard]] std::size_t snapshotBytesEstimate(
      const GpCheckpointState* gp) const {
    std::size_t b = 2 * db.objects.size() * sizeof(double) +
                    2 * st.fillers.cx.size() * sizeof(double) + 4096;
    if (gp != nullptr) b += 5 * gp->opt.u.size() * sizeof(double);
    if (curLevelDb != nullptr) {
      b += 2 * curLevelDb->objects.size() * sizeof(double) +
           2 * curLevelFillers.cx.size() * sizeof(double);
    }
    return b;
  }

  /// Degrades the run to snapshot-less mode: checkpoints stop, the run
  /// itself continues (and stays resumable from whatever was written).
  void disableSnapshots(const std::string& why) {
    if (snapshotsDisabled) return;
    snapshotsDisabled = true;
    rc.stats().add("supervisor.snapshotsDisabled", 1.0);
    rc.log().warn(
        "supervisor: degrading to snapshot-less mode (%s); the run "
        "continues un-checkpointed",
        why.c_str());
  }

  void saveSnapshot(FlowStage next, const GpCheckpointState* gp) {
    if (sup.snapshotDir.empty() || snapshotsDisabled) return;
    // The serialization buffers are a real allocation spike on big
    // instances; meter them so a tightly budgeted job is not OOM-killed by
    // its own checkpoints. An unpayable checkpoint is permanent (the state
    // only grows), so degrade immediately instead of failing every interval.
    ScopedCharge charge(rc.memory(), snapshotBytesEstimate(gp));
    if (rc.memory().limited() && !charge.ok()) {
      disableSnapshots("memory budget cannot hold checkpoint buffers");
      SupervisorEvent ev;
      ev.kind = SupervisorEvent::Kind::kSnapshotFailed;
      ev.stage = next;
      ev.status = Status::resourceExhausted(
          "checkpoint skipped: memory budget exhausted");
      emit(ev);
      return;
    }
    const SnapshotData snap =
        encodeCheckpoint(db, st, next, macrosFrozen, jitter, gp,
                         rc.pool().threads(), curLevel, curLevelDb,
                         &curLevelFillers);
    const Status s = writeSnapshotFile(snapshotPath(sup.snapshotDir, nextSeq),
                                       snap, &rc.faults());
    if (!s.ok()) {
      // A failing checkpoint must never fail the placement itself: emit a
      // recovery event, keep running un-checkpointed, and retry at the
      // next interval — unless the failure is persistent (a full disk
      // stays full, and three consecutive failures are treated the same),
      // in which case stop trying.
      ++snapFailures;
      rc.stats().add("supervisor.snapshotFailures", 1.0);
      rc.log().warn("supervisor: snapshot write failed: %s",
                    s.toString().c_str());
      SupervisorEvent ev;
      ev.kind = SupervisorEvent::Kind::kSnapshotFailed;
      ev.stage = next;
      ev.status = s;
      emit(ev);
      if (io::isNoSpace(s)) {
        disableSnapshots("no space on the snapshot device");
      } else if (snapFailures >= 3) {
        disableSnapshots("3 consecutive snapshot write failures");
      }
      return;
    }
    snapFailures = 0;
    bumpStage(next, "snapshots", 1.0);
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kSnapshot;
    ev.stage = next;
    ev.snapshotSeq = nextSeq;
    emit(ev);
    ++nextSeq;
    ++report.snapshotsWritten;
    pruneSnapshots(sup.snapshotDir, keepSnapshots);
  }

  /// Loads the newest snapshot in sup.resumeDir that reads and decodes
  /// for this instance into `resume`, counting every rejected one.
  bool tryResume() {
    const auto paths = listSnapshots(sup.resumeDir);
    for (const std::string& path : paths) {
      StatusOr<Checkpoint> cp = readCheckpoint(path, db);
      if (!cp.ok()) {
        ++report.snapshotsRejected;
        rc.log().warn("supervisor: rejected snapshot %s: %s", path.c_str(),
                      cp.status().toString().c_str());
        continue;
      }
      resume = std::move(*cp);
      rc.log().info("supervisor: resuming at %s from %s%s",
                    flowStageName(resume.next), path.c_str(),
                    resume.hasGp ? " (mid-stage optimizer state)" : "");
      return true;
    }
    if (!paths.empty()) {
      rc.log().warn("supervisor: no usable snapshot in %s; starting fresh",
                    sup.resumeDir.c_str());
    }
    return false;
  }

  /// Restores the flow state `resume` carries and emits `resumed` report
  /// rows for the stages it already covers.
  void applyResume() {
    restorePositions(db, resume.positions);
    st.mixedSize = resume.mixedSize;
    st.fillers = std::move(resume.fillers);
    st.res = std::move(resume.res);
    jitter.loadState(resume.rng.data());
    if (resume.macrosFrozen) {
      flowFreezeMacros(db);
      macrosFrozen = true;
    }
    const struct {
      FlowStage stage;
      const StageMetrics& m;
    } done[] = {{FlowStage::kMip, st.res.mip},
                {FlowStage::kMgp, st.res.mgp},
                {FlowStage::kMlg, st.res.mlg},
                {FlowStage::kCgp, st.res.cgp},
                {FlowStage::kCdp, st.res.cdp}};
    for (const auto& d : done) {
      if (!d.m.ran) continue;
      StageReport rep;
      rep.stage = d.stage;
      rep.resumed = true;
      rep.seconds = d.m.seconds;
      rep.note = "restored from snapshot";
      report.stages.push_back(rep);
    }
    report.resumed = true;
    report.resumeStage = resume.next;
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kResume;
    ev.stage = resume.next;
    emit(ev);
  }

  // --- stages --------------------------------------------------------------

  void runMip() {
    StageReport rep;
    rep.stage = FlowStage::kMip;
    Timer t;
    const auto entry = capturePositions(db);
    rep.attempts = 1;
    flowStageMip(db, st);
    if (!movablesFiniteInCore(db)) {
      restorePositions(db, entry);
      bumpStage(FlowStage::kMip, "rollbacks", 1.0);
      rep.status = Status::numericalDivergence(
          "mIP left non-finite or out-of-core positions");
      appendNote(rep, "result discarded; mGP starts from input positions");
    }
    rep.seconds = t.seconds();
    finishStage(rep);
  }

  [[nodiscard]] bool multilevelEngaged() const {
    return sup.multilevel.enabled &&
           db.movable().size() >= sup.multilevel.minMovable;
  }

  /// One coarse level of the V-cycle: GP on the clustered instance with a
  /// capped schedule. A coarse level is only a seed for the next-finer
  /// level, so failures are recoverable — a diverged level rolls back to
  /// its uncoarsened entry positions and the ladder continues. Returns
  /// false on a memory-budget breach (the ladder is abandoned; the flat
  /// stage's degradation ladder owns that failure mode).
  bool runOneCoarseLevel(PlacementDB& ldb, int k) {
    StageReport rep;
    rep.stage = FlowStage::kMgp;
    rep.level = k;
    rep.attempts = 1;
    Timer t;
    const auto entry = capturePositions(ldb);
    GpConfig gcfg = st.cfg.gp;
    gcfg.maxIterations = std::max(1, sup.multilevel.levelMaxIterations);
    gcfg.targetOverflow =
        std::max(gcfg.targetOverflow, kLevelTargetOverflow);
    const bool resumeHere = resume.hasGp &&
                            resume.next == FlowStage::kMgp &&
                            resume.level == k;
    GlobalPlacer::TraceFn trace;
    if (st.cfg.gpTrace) {
      const std::string label = "mGP@L" + std::to_string(k);
      trace = [this, label](const GpIterTrace& it) {
        st.cfg.gpTrace(label, it);
      };
    }
    GpResult r;
    bool memBreach = false;
    // The level's arena and grid are charged from the placer's
    // construction on, so a breach anywhere in the level abandons it.
    try {
      GlobalPlacer gp(ldb, ldb.movable(), gcfg, rc);
      GpRunControl ctl;
      if (resumeHere && resume.levelFillers.size() > 0) {
        gp.setFillers(resume.levelFillers);
        ctl.resume = &resume.gp;
      } else {
        gp.makeFillersFromDb();
      }
      curLevel = k;
      curLevelDb = &ldb;
      curLevelFillers = gp.fillers();
      if (sup.saveEvery > 0 && !sup.snapshotDir.empty()) {
        ctl.saveEvery = sup.saveEvery;
        ctl.save = [this](const GpCheckpointState& cp) {
          saveSnapshot(FlowStage::kMgp, &cp);
        };
      }
      r = gp.run(trace, ctl);
    } catch (const MemoryBudgetExceeded& e) {
      memBreach = true;
      rep.status = Status::resourceExhausted(e.what());
      rc.stats().add("supervisor.memBreaches", 1.0);
      rc.log().warn("supervisor: mGP@L%d memory budget breach (%s); "
                    "abandoning coarse levels",
                    k, e.what());
    }
    if (resumeHere) resume.hasGp = false;
    curLevel = -1;
    curLevelDb = nullptr;
    curLevelFillers = FillerSet{};
    if (memBreach || !movablesFiniteInCore(ldb)) {
      restorePositions(ldb, entry);
      if (!memBreach) {
        bumpStage(FlowStage::kMgp, "rollbacks", 1.0);
        rep.status = Status::numericalDivergence(
            "failed the finite/in-core gate");
        appendNote(rep, "level rolled back to its seed");
        rc.log().warn("supervisor: mGP@L%d failed the finite/in-core gate; "
                      "level rolled back to its seed",
                      k);
      }
    }
    LevelMetrics lm;
    lm.level = k;
    lm.clusters = ldb.movable().size();
    lm.metrics = flowStageMetrics(ldb, t.seconds(), r.iterations);
    st.res.mgpLevels.push_back(lm);
    rc.log().info(
        "supervisor: mGP@L%d: %zu clusters, %d iter(s), overflow %.3f, "
        "HPWL %.4g, %.2fs",
        k, lm.clusters, lm.metrics.iterations, lm.metrics.overflow,
        lm.metrics.hpwl, lm.metrics.seconds);
    rep.seconds = lm.metrics.seconds;
    appendNote(rep, std::to_string(lm.clusters) + " clusters");
    report.stages.push_back(std::move(rep));
    return !memBreach;
  }

  /// Charges a freshly built ladder to the session budget: each level's
  /// view in `viewCharges` (one entry per level, dropped with it), and its
  /// arena's growth from now on. False on a breach; the caller then drops
  /// the whole ladder.
  bool chargeLadder(ClusterLadder& ladder,
                    std::vector<ScopedCharge>& viewCharges) {
    viewCharges.reserve(ladder.depth());
    for (ClusterLevel& lvl : ladder.levels) {
      PlacementView& pv = lvl.coarse.view();
      viewCharges.emplace_back(rc.memory(), pv.footprintBytes());
      if (!viewCharges.back().ok()) {
        rc.stats().add("supervisor.memBreaches", 1.0);
        rc.log().warn("supervisor: memory budget cannot hold the cluster "
                      "ladder; flat mGP only");
        return false;
      }
      pv.arena().setBudget(&rc.memory());
    }
    return true;
  }

  /// The coarse half of the V-cycle, run before flat mGP: coarsest level
  /// first, each level seeding the next-finer instance via uncoarsening,
  /// with a boundary snapshot per level so a killed run resumes mid-ladder
  /// bit-exactly. The ladder lives only here, and each level is freed as
  /// soon as it has seeded the next-finer one and the boundary snapshot
  /// is written. It is rebuilt deterministically on resume (coarsening
  /// depends only on the netlist, geometry and the restored positions), so
  /// it is never serialized.
  void runCoarseLevels() {
    if (!multilevelEngaged()) return;
    auto lr = buildClusterLadder(db, sup.multilevel.cluster, &rc);
    if (!lr.ok()) {
      rc.log().warn("supervisor: clustering failed (%s); flat mGP only",
                    lr.status().toString().c_str());
      return;
    }
    ClusterLadder ladder = std::move(*lr);
    if (ladder.empty()) return;
    const int depth = static_cast<int>(ladder.depth());
    int start = depth - 1;
    if (resume.level >= 0) {
      // Continue at the snapshot's level when its shape matches the
      // deterministically rebuilt ladder; otherwise restart the ladder from
      // the top — correct either way, coarse levels are only seeds.
      PlacementDB* ldb =
          resume.level < depth
              ? &ladder.levels[static_cast<std::size_t>(resume.level)].coarse
              : nullptr;
      if (ldb != nullptr &&
          resume.levelPositions.size() == 2 * ldb->objects.size()) {
        restorePositions(*ldb, resume.levelPositions);
        start = resume.level;
      } else {
        rc.log().warn(
            "supervisor: snapshot level %d does not match the rebuilt "
            "ladder; restarting coarse levels",
            resume.level);
        resume.hasGp = false;
      }
    }
    // Levels coarser than the start have already seeded theirs.
    ladder.levels.resize(static_cast<std::size_t>(start + 1));
    std::vector<ScopedCharge> viewCharges;
    if (!chargeLadder(ladder, viewCharges)) return;
    bumpStage(FlowStage::kMgp, "levels", static_cast<double>(start + 1));
    for (int k = start; k >= 0; --k) {
      if (rc.cancelled()) return;  // the flat stage reports the cancel
      ClusterLevel& level = ladder.levels[static_cast<std::size_t>(k)];
      if (!runOneCoarseLevel(level.coarse, k)) return;
      if (rc.cancelled()) return;
      PlacementDB& fine =
          k == 0 ? db : ladder.levels[static_cast<std::size_t>(k - 1)].coarse;
      const Status us = uncoarsenPositions(level, fine);
      if (!us.ok()) {
        // Unreachable for a ladder built from this db; bail to flat mGP.
        rc.log().warn("supervisor: uncoarsen failed at L%d: %s", k,
                      us.toString().c_str());
        return;
      }
      // Boundary snapshot: the cursor stays kMgp; the mlevel section moves
      // to the next-finer level (absent once the ladder is done, so a
      // resume lands in flat mGP on the fully uncoarsened positions).
      if (k > 0) {
        curLevel = k - 1;
        curLevelDb = &fine;
        saveSnapshot(FlowStage::kMgp, nullptr);
        curLevel = -1;
        curLevelDb = nullptr;
      } else {
        saveSnapshot(FlowStage::kMgp, nullptr);
      }
      // Level k is spent: free it and return its bytes to the budget.
      level = ClusterLevel{};
      viewCharges.pop_back();
    }
  }

  void runGpStage(FlowStage stage) {
    const bool isMgp = stage == FlowStage::kMgp;
    const int maxAttempts = isMgp ? sup.mgpAttempts : sup.cgpAttempts;
    StageReport rep;
    rep.stage = stage;
    Timer t;
    const auto entry = capturePositions(db);
    const GpConfig baseGp = st.cfg.gp;
    const FillerSet entryFillers = st.fillers;
    bool accepted = false;
    bool memBreach = false;
    for (int attempt = 0; attempt < std::max(1, maxAttempts); ++attempt) {
      if (attempt > 0) {
        restorePositions(db, entry);
        st.fillers = entryFillers;
        if (memBreach) {
          // Budget-breach retry: halve the bin-grid resolution (the grid
          // and its spectral workspaces are the dominant non-linear cost)
          // and drop checkpoint retention to one file so the retry has the
          // headroom the failed attempt lacked. The charge-before-allocate
          // contract means the breach left no stray bytes charged.
          const std::size_t n = db.movable().size() + st.fillers.cx.size();
          const std::size_t curNx = st.cfg.gp.gridNx != 0
                                        ? st.cfg.gp.gridNx
                                        : BinGrid::chooseResolution(n);
          const std::size_t curNy = st.cfg.gp.gridNy != 0
                                        ? st.cfg.gp.gridNy
                                        : BinGrid::chooseResolution(n);
          st.cfg.gp.gridNx = std::max<std::size_t>(32, curNx / 2);
          st.cfg.gp.gridNy = std::max<std::size_t>(32, curNy / 2);
          keepSnapshots = 1;
          appendNote(rep, "memory retry with coarser bin grid");
          rc.log().warn(
              "supervisor: %s memory budget breach; retrying with %zux%zu "
              "bin grid and reduced checkpoint retention",
              flowStageName(stage), st.cfg.gp.gridNx, st.cfg.gp.gridNy);
        } else {
          // Perturbed retry: relaxed density goal, re-seeded fillers.
          st.cfg.gp.targetOverflow =
              baseGp.targetOverflow +
              static_cast<double>(attempt) * kOverflowRetryRelax;
          st.cfg.gp.fillerSeed =
              baseGp.fillerSeed + 7919ULL * static_cast<std::uint64_t>(attempt);
          appendNote(rep, "retry with relaxed target overflow");
        }
      }
      GpRunControl ctl;
      if (attempt == 0 && resume.hasGp && resume.next == stage &&
          resume.level < 0) {
        // A checkpoint belonging to a coarse ladder level is consumed by
        // runOneCoarseLevel, never by the flat stage.
        ctl.resume = &resume.gp;
        rep.resumed = true;  // mid-stage continuation, still executed
      }
      if (sup.saveEvery > 0 && !sup.snapshotDir.empty()) {
        ctl.saveEvery = sup.saveEvery;
        ctl.save = [this, stage](const GpCheckpointState& gp) {
          saveSnapshot(stage, &gp);
        };
      }
      ++rep.attempts;
      memBreach = false;
      try {
        if (isMgp) {
          flowStageMgp(db, st, ctl);
        } else {
          flowStageCgp(db, st, ctl);
        }
      } catch (const MemoryBudgetExceeded& e) {
        memBreach = true;
        rep.status = Status::resourceExhausted(e.what());
        rc.stats().add("supervisor.memBreaches", 1.0);
        if (!budgetLeft()) break;
        continue;
      }
      const GpResult& r = isMgp ? st.res.mgpResult : st.res.cgpResult;
      const bool gate = movablesFiniteInCore(db);
      rep.status = r.status;
      if (gate && r.status.ok()) {
        accepted = true;
        break;
      }
      if (gate && (attempt + 1 >= maxAttempts || !budgetLeft())) {
        // Out of retries (or time) but the placement is usable: keep the
        // degraded result; flowFinish reports the stage status.
        accepted = true;
        appendNote(rep, "accepted degraded result");
        break;
      }
      if (!gate && !budgetLeft()) break;
    }
    st.cfg.gp = baseGp;
    if (resume.hasGp && resume.next == stage) resume.hasGp = false;
    if (accepted) {
      const GpResult& fin = isMgp ? st.res.mgpResult : st.res.cgpResult;
      bumpStage(stage, "recoveries", static_cast<double>(fin.recoveries));
    }
    if (!accepted) {
      restorePositions(db, entry);
      st.fillers = entryFillers;
      bumpStage(stage, "rollbacks", 1.0);
      if (memBreach) {
        // Every rung of the degradation ladder re-breached: fail this run
        // cleanly with a typed status (positions restored, nothing
        // corrupted) and stop the flow — later stages would breach too.
        memAborted = true;
        appendNote(rep, "rolled back; memory budget exhausted on every grid");
      } else {
        rep.status = Status::numericalDivergence(
            std::string(flowStageName(stage)) +
            " failed the finite/in-core invariant gate on every attempt");
        appendNote(rep, "rolled back to stage-entry positions");
      }
      flowComposeStatus(st.res, stage, rep.status);
    }
    rep.seconds = t.seconds();
    finishStage(rep);
  }

  void runMlg() {
    StageReport rep;
    rep.stage = FlowStage::kMlg;
    Timer t;
    const auto entry = capturePositions(db);
    const MlgConfig base = st.cfg.mlg;
    bool legal = false;
    for (int attempt = 0; attempt < std::max(1, sup.mlgAttempts); ++attempt) {
      if (attempt > 0) {
        restorePositions(db, entry);
        // Perturbed retry: re-seeded annealer with a longer schedule.
        st.cfg.mlg.seed =
            base.seed + 7919ULL * static_cast<std::uint64_t>(attempt);
        st.cfg.mlg.maxOuterIterations =
            base.maxOuterIterations + attempt * (base.maxOuterIterations / 2);
        appendNote(rep, "retry with re-seeded annealer");
      }
      ++rep.attempts;
      flowStageMlg(db, st);
      legal = st.res.mlgResult.legal && movablesFiniteInCore(db);
      if (legal || !budgetLeft()) break;
    }
    st.cfg.mlg = base;
    if (!legal) {
      // Keep the best annealed layout (less overlap than stage entry) and
      // record the violated invariant on the stage only: cGP and cDP still
      // deliver a legal placement around the frozen macros, so leftover
      // macro overlap is not a run failure. A cancel that cut the retries
      // short is labeled as such and does end the run.
      rep.status = rc.cancelled()
                       ? Status::cancelled("mLG cancelled (" +
                                           rc.cancelReason() + ")")
                       : Status::numericalDivergence(
                             "mLG left macro overlap after every attempt");
      appendNote(rep, "macro overlap remains");
      if (rc.cancelled()) flowComposeStatus(st.res, FlowStage::kMlg, rep.status);
    }
    rep.seconds = t.seconds();
    finishStage(rep);
  }

  /// Nudges movable standard cells before a legalization retry so the
  /// Tetris packing order (sorted by x) differs from the failed attempt.
  void jitterStdCells() {
    const double pitch = db.rows.empty() ? 1.0 : db.rows.front().siteWidth;
    for (auto i : db.movable()) {
      auto& o = db.objects[static_cast<std::size_t>(i)];
      if (o.kind != ObjKind::kStdCell) continue;
      const double nx = o.lx + jitter.uniform(-2.0, 2.0) * pitch;
      const Point p = clampLowerLeft(nx, o.ly, o.w, o.h, db.region);
      o.lx = p.x;
      o.ly = p.y;
    }
  }

  [[nodiscard]] bool legalGateOk(double preHpwl) const {
    if (!movablesFiniteInCore(db)) return false;
    if (!checkLegality(db).legal) return false;
    const double h = hpwl(db);
    if (!std::isfinite(h)) return false;
    return preHpwl <= 0.0 || h <= preHpwl * kLegalizeHpwlCap;
  }

  void runCdp() {
    StageReport rep;
    rep.stage = FlowStage::kCdp;
    Timer t;
    const auto entry = capturePositions(db);
    // The HPWL cap measures legalization against a spread placement. A GP
    // stage that the deadline stopped short hands over an unspread one,
    // whose HPWL is no reference; legality alone gates the result then.
    const GpResult& gp = st.mixedSize ? st.res.cgpResult : st.res.mgpResult;
    const double preHpwl =
        gp.status.code() == StatusCode::kTimeout ? 0.0 : hpwl(db);
    bool legalOk = false;
    for (int attempt = 0;
         attempt < std::max(1, sup.cdpAttempts) && !legalOk; ++attempt) {
      if (attempt > 0) {
        restorePositions(db, entry);
        jitterStdCells();
        appendNote(rep, "retry with jittered cells");
      }
      ++rep.attempts;
      st.res.legalizeResult = legalizeCells(db, rc);
      legalOk = legalGateOk(preHpwl);
      if (!legalOk && !budgetLeft()) break;
    }
    if (!legalOk && sup.allowFallbacks) {
      restorePositions(db, entry);
      ++rep.attempts;
      rep.fellBack = true;
      st.res.legalizeResult = greedyLegalizeCells(db, rc);
      legalOk = legalGateOk(preHpwl);
      appendNote(rep, legalOk ? "greedy fallback legalizer"
                              : "greedy fallback also failed");
    }
    if (!legalOk) {
      restorePositions(db, entry);
      bumpStage(FlowStage::kCdp, "rollbacks", 1.0);
      rep.status = rc.cancelled()
                       ? Status::cancelled("cDP cancelled (" +
                                           rc.cancelReason() + ")")
                       : Status::numericalDivergence(
                             "legalization failed the legality/HPWL gate on "
                             "every path");
      appendNote(rep, "kept global placement result");
      flowComposeStatus(st.res, FlowStage::kCdp, rep.status);
    } else {
      const auto postLegal = capturePositions(db);
      const double postLegalHpwl = hpwl(db);
      st.res.detailResult = detailPlace(db, rc, st.cfg.detail);
      const double after = hpwl(db);
      const bool detailOk =
          std::isfinite(after) &&
          after <= postLegalHpwl * (1.0 + kDetailRegressionTol) &&
          checkLegality(db).legal && movablesFiniteInCore(db);
      if (!detailOk) {
        // Skip-cDP fallback: the legalized placement is the deliverable.
        restorePositions(db, postLegal);
        bumpStage(FlowStage::kCdp, "rollbacks", 1.0);
        rep.fellBack = true;
        appendNote(rep, "detail placement rolled back (regressed or illegal)");
      }
    }
    st.res.cdp = flowStageMetrics(db, t.seconds(), st.res.detailResult.passes);
    rep.seconds = t.seconds();
    finishStage(rep);
  }

  /// Per-stage named counter: "flow.<stage>.<what>". RunRecord reads these
  /// from the stats registry instead of re-plumbing every count through
  /// return values.
  void bumpStage(FlowStage s, const char* what, double v) {
    rc.stats().add(std::string("flow.") + flowStageName(s) + "." + what, v);
  }

  void finishStage(StageReport rep) {
    if (!rep.status.ok()) {
      rc.log().warn("supervisor: stage %s degraded: %s",
                    flowStageName(rep.stage), rep.status.toString().c_str());
    }
    rc.stats().add("supervisor.attempts", static_cast<double>(rep.attempts));
    if (rep.fellBack) rc.stats().add("supervisor.fallbacks", 1.0);
    bumpStage(rep.stage, "retries",
              static_cast<double>(std::max(0, rep.attempts - 1)));
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kStageFinish;
    ev.stage = rep.stage;
    ev.attempts = rep.attempts;
    ev.seconds = rep.seconds;
    ev.status = rep.status;
    ev.fellBack = rep.fellBack;
    emit(ev);
    report.stages.push_back(std::move(rep));
  }

  StatusOr<FlowResult> run() {
    if (!sup.snapshotDir.empty()) {
      // A directory that cannot be created surfaces as a failed write at
      // the first checkpoint (SupervisorEvent::kSnapshotFailed).
      std::error_code ec;
      std::filesystem::create_directories(sup.snapshotDir, ec);
      nextSeq = nextSnapshotSeq(sup.snapshotDir);
    }
    FlowStage next = FlowStage::kMip;
    if (!sup.resumeDir.empty() && tryResume()) {
      applyResume();
      next = resume.next;
    }
    while (next != FlowStage::kDone) {
      if (rc.cancelled()) {
        flowComposeStatus(st.res, next,
                          Status::cancelled("flow cancelled before " +
                                            std::string(flowStageName(next)) +
                                            " (" + rc.cancelReason() + ")"));
        rc.log().warn("supervisor: cancelled before %s (%s)",
                      flowStageName(next), rc.cancelReason().c_str());
        break;
      }
      {
        SupervisorEvent ev;
        ev.kind = SupervisorEvent::Kind::kStageStart;
        ev.stage = next;
        emit(ev);
      }
      switch (next) {
        case FlowStage::kMip:
          runMip();
          st.mixedSize = db.numMovableMacros() > 0;
          next = FlowStage::kMgp;
          break;
        case FlowStage::kMgp:
          runCoarseLevels();
          if (!rc.cancelled()) runGpStage(FlowStage::kMgp);
          next = st.mixedSize ? FlowStage::kMlg
                 : st.cfg.runDetail ? FlowStage::kCdp
                                    : FlowStage::kDone;
          break;
        case FlowStage::kMlg:
          runMlg();
          flowFreezeMacros(db);
          macrosFrozen = true;
          next = FlowStage::kCgp;
          break;
        case FlowStage::kCgp:
          runGpStage(FlowStage::kCgp);
          next = st.cfg.runDetail ? FlowStage::kCdp : FlowStage::kDone;
          break;
        case FlowStage::kCdp:
          runCdp();
          next = FlowStage::kDone;
          break;
        case FlowStage::kDone:
          break;
      }
      if (memAborted) {
        // The degradation ladder (coarser grids, reduced retention) could
        // not fit the budget; every later stage would re-breach, so end
        // the flow with the typed kResourceExhausted already recorded.
        rc.log().warn("supervisor: stopping flow after memory budget "
                      "exhaustion in %s",
                      flowStageName(report.stages.back().stage));
        break;
      }
      if (rc.cancelled()) {
        // Do NOT write the boundary snapshot: the durable stream keeps the
        // last pre-cancel (mid-stage) snapshot, so a resumed run replays the
        // remaining iterations of the interrupted stage bit-exactly instead
        // of accepting its truncated result as a stage boundary.
        flowComposeStatus(
            st.res, next,
            Status::cancelled("flow cancelled (" + rc.cancelReason() + ")"));
        break;
      }
      saveSnapshot(next, nullptr);
    }
    flowFinish(db, st);
    rc.stats().add("supervisor.snapshotsWritten",
                   static_cast<double>(report.snapshotsWritten));
    rc.log().info("%s", report.summary().c_str());
    return st.res;
  }
};

}  // namespace

SupervisorConfig plainPolicy() {
  SupervisorConfig sup;
  sup.mgpAttempts = sup.mlgAttempts = sup.cgpAttempts = sup.cdpAttempts = 1;
  sup.allowFallbacks = false;
  return sup;
}

std::string SupervisorReport::summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "supervisor: %d snapshot(s) written, %d rejected%s\n",
                snapshotsWritten, snapshotsRejected,
                resumed ? ", resumed run" : "");
  out += line;
  out += "  stage    att  time(s)  outcome   note\n";
  for (const auto& r : stages) {
    const std::string name = r.level >= 0
                                 ? "mGP@L" + std::to_string(r.level)
                                 : std::string(flowStageName(r.stage));
    const char* outcome = "ok";
    if (r.resumed && r.attempts == 0) {
      outcome = "resumed";
    } else if (!r.status.ok()) {
      outcome = statusCodeName(r.status.code());
    } else if (r.fellBack) {
      outcome = "fallback";
    }
    std::snprintf(line, sizeof line, "  %-7s  %3d  %7.2f  %-8s  %s\n",
                  name.c_str(), r.attempts, r.seconds, outcome,
                  r.note.c_str());
    out += line;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

StatusOr<FlowResult> runSupervisedFlow(PlacementDB& db, const FlowConfig& cfg,
                                       RuntimeContext& rc,
                                       const SupervisorConfig& sup,
                                       SupervisorReport* report) {
  SupervisorReport local;
  SupervisorReport& rep = report != nullptr ? *report : local;
  rep = SupervisorReport{};
  int repaired = 0;
  const Status s = db.sanitize(&repaired);
  if (!s.ok()) return s;
  if (repaired > 0) {
    rc.log().warn(
        "flow: sanitize repaired %d object(s) (clamped, recentered or "
        "de-duplicated pads)",
        repaired);
  }
  const Status v = db.validate();
  if (!v.ok()) return v;
  Supervisor sv(rc, db, cfg, sup, rep);
  // Exception boundary: a throwing hot-path task (e.g. a worker on the
  // thread pool) surfaces as a typed status instead of std::terminate.
  try {
    return sv.run();
  } catch (const MemoryBudgetExceeded& e) {
    // A breach outside the GP degradation ladder (view rebuild, legalizer
    // scratch) is still a typed per-job outcome, never an abort.
    return Status::resourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::internal(std::string("flow aborted by exception: ") +
                            e.what());
  }
}

namespace {

// The StageMetrics columns shared by the "mGP@L<k>" and the flat rows.
StageRecord stageRecord(std::string stage, const StageMetrics& m) {
  StageRecord sr;
  sr.stage = std::move(stage);
  sr.ran = m.ran;
  sr.wallMs = m.seconds * 1000.0;
  sr.iterations = m.iterations;
  sr.hpwl = m.hpwl;
  sr.hpwlBits = doubleBits(m.hpwl);
  sr.overflow = m.overflow;
  return sr;
}

}  // namespace

RunRecord buildRunRecord(const PlacementDB& db, const FlowResult& res,
                         const SupervisorReport& report, RuntimeContext& rc,
                         bool supervised) {
  RunRecord rec;
  rec.name = db.name;
  rec.fingerprint = netlistFingerprint(db);
  rec.seed = rc.seed();
  rec.threads = rc.threadCount();
  rec.supervised = supervised;

  // Coarse V-cycle rows ("mGP@L<k>", coarsest first) precede the flat
  // stage rows. Flat runs emit none, so existing records and regression
  // baselines are byte-for-byte unaffected.
  for (const LevelMetrics& lm : res.mgpLevels) {
    rec.stages.push_back(
        stageRecord("mGP@L" + std::to_string(lm.level), lm.metrics));
  }

  const struct {
    FlowStage stage;
    const StageMetrics& m;
    int recoveries;
  } rows[] = {
      {FlowStage::kMip, res.mip, 0},
      {FlowStage::kMgp, res.mgp, res.mgpResult.recoveries},
      {FlowStage::kMlg, res.mlg, 0},
      {FlowStage::kCgp, res.cgp, res.cgpResult.recoveries},
      {FlowStage::kCdp, res.cdp, 0},
  };
  for (const auto& row : rows) {
    StageRecord sr = stageRecord(flowStageName(row.stage), row.m);
    sr.recoveries = row.recoveries;
    for (const StageReport& rep : report.stages) {
      if (rep.stage == row.stage) sr.retries += std::max(0, rep.attempts - 1);
    }
    const std::string prefix = std::string("flow.") + sr.stage + ".";
    sr.rollbacks = static_cast<int>(rc.stats().value(prefix + "rollbacks"));
    sr.snapshots = static_cast<int>(rc.stats().value(prefix + "snapshots"));
    rec.stages.push_back(std::move(sr));
  }

  rec.finalHpwl = res.finalHpwl;
  rec.finalHpwlBits = doubleBits(res.finalHpwl);
  rec.finalScaledHpwl = res.finalScaledHpwl;
  for (const auto& row : rows) {
    if (row.m.ran) rec.finalOverflow = row.m.overflow;
  }
  rec.legal = res.legality.legal;
  rec.totalSeconds = res.totalSeconds;
  rec.peakBytes = rc.memory().peakBytes();
  rec.arenaGrowthEvents = db.view().arena().growthEvents();
  rec.snapshotsWritten = report.snapshotsWritten;
  rec.status = statusCodeName(res.status.code());
  for (const auto& [k, v] : rc.stats().snapshot()) rec.stats.emplace_back(k, v);
  return rec;
}

}  // namespace ep
