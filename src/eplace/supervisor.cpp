#include "eplace/supervisor.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "density/bingrid.h"
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

constexpr const char* kSnapPrefix = "snap_";
constexpr const char* kSnapSuffix = ".epsnap";

std::string snapFileName(int seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%06d%s", kSnapPrefix, seq, kSnapSuffix);
  return buf;
}

/// Sequence number encoded in a snapshot file name, or -1.
int snapSeqOf(const std::string& name) {
  const std::size_t plen = std::string(kSnapPrefix).size();
  const std::size_t slen = std::string(kSnapSuffix).size();
  if (name.size() <= plen + slen) return -1;
  if (name.compare(0, plen, kSnapPrefix) != 0) return -1;
  if (name.compare(name.size() - slen, slen, kSnapSuffix) != 0) return -1;
  int seq = 0;
  for (std::size_t i = plen; i < name.size() - slen; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    seq = seq * 10 + (c - '0');
  }
  return seq;
}

/// Snapshot files in `dir`, sorted by ascending sequence number.
std::vector<std::string> listSnapshotFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (const dirent* e = ::readdir(d)) {
    if (snapSeqOf(e->d_name) >= 0) files.emplace_back(e->d_name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return snapSeqOf(a) < snapSeqOf(b);
  });
  return files;
}

void makeDirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && cur != "/") ::mkdir(cur.c_str(), 0755);
    }
    if (i < path.size()) cur += path[i];
  }
}

/// Serialize positions straight from the view's SoA arrays (layout: all
/// objects, interleaved lx,ly — the checkpoint wire format). Syncs the
/// view first so movable entries are current at this stage boundary.
std::vector<double> capturePositions(PlacementDB& db) {
  PlacementView& pv = db.view();
  pv.syncPositionsFromDb(db);
  const auto lx = pv.lx();
  const auto ly = pv.ly();
  std::vector<double> pos;
  pos.reserve(lx.size() * 2);
  for (std::size_t i = 0; i < lx.size(); ++i) {
    pos.push_back(lx[i]);
    pos.push_back(ly[i]);
  }
  return pos;
}

void restorePositions(PlacementDB& db, const std::vector<double>& pos) {
  PlacementView& pv = db.view();
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    db.objects[i].lx = pos[2 * i];
    db.objects[i].ly = pos[2 * i + 1];
    pv.setPosition(static_cast<std::int32_t>(i), pos[2 * i], pos[2 * i + 1]);
  }
}

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

// --- snapshot payload codec ------------------------------------------------

void putMetrics(ByteWriter& w, const StageMetrics& m) {
  w.f64(m.hpwl);
  w.f64(m.overflow);
  w.f64(m.seconds);
  w.i32(m.iterations);
  w.u8(m.ran ? 1 : 0);
}

StageMetrics getMetrics(ByteReader& r) {
  StageMetrics m;
  m.hpwl = r.f64();
  m.overflow = r.f64();
  m.seconds = r.f64();
  m.iterations = r.i32();
  m.ran = r.u8() != 0;
  return m;
}

/// Everything a resumed run needs to continue from where a snapshot was
/// taken: the stage cursor, positions, the reused filler set, the
/// supervisor's jitter RNG stream, restored per-stage metrics, and (for
/// mid-GP snapshots) the full optimizer checkpoint.
struct ResumeData {
  FlowStage next = FlowStage::kMip;
  bool mixedSize = false;
  bool macrosFrozen = false;
  int mgpIterations = 0;
  double mgpFinalLambda = 0.0;
  StatusCode mgpStatus = StatusCode::kOk;
  StatusCode cgpStatus = StatusCode::kOk;
  StageMetrics mip, mgp, mlg, cgp, cdp;
  std::vector<double> positions;
  FillerSet fillers;
  std::uint64_t rng[4] = {};
  bool hasGp = false;
  GpCheckpointState gp;
  /// Multilevel cursor: the ladder level the run was inside (-1 = flat
  /// mGP or not in mGP). When >= 0 the "mlevel" section carries that
  /// level's positions (and fillers for mid-level optimizer snapshots);
  /// the ladder itself is rebuilt deterministically, never serialized.
  int mgpLevel = -1;
  std::vector<double> levelPositions;
  FillerSet levelFillers;
};

SnapshotData buildSnapshot(PlacementDB& db, const FlowState& st,
                           FlowStage next, bool macrosFrozen,
                           const Rng& jitter, const GpCheckpointState* gp,
                           int poolThreads, int mgpLevel,
                           PlacementDB* levelDb,
                           const FillerSet* levelFillers) {
  SnapshotData snap;
  {
    ByteWriter w;
    w.str(db.name);
    w.u64(db.objects.size());
    w.u64(db.nets.size());
    w.u8(static_cast<std::uint8_t>(next));
    w.u8(st.mixedSize ? 1 : 0);
    w.u8(macrosFrozen ? 1 : 0);
    w.i32(st.res.mgpResult.iterations);
    w.f64(st.res.mgpResult.finalLambda);
    w.u8(static_cast<std::uint8_t>(st.res.mgpResult.status.code()));
    w.u8(static_cast<std::uint8_t>(st.res.cgpResult.status.code()));
    putMetrics(w, st.res.mip);
    putMetrics(w, st.res.mgp);
    putMetrics(w, st.res.mlg);
    putMetrics(w, st.res.cgp);
    putMetrics(w, st.res.cdp);
    w.i32(mgpLevel);  // trailing field; absent in pre-multilevel snapshots
    snap.add("meta", w.take());
  }
  if (mgpLevel >= 0 && levelDb != nullptr) {
    ByteWriter w;
    w.i32(mgpLevel);
    w.doubles(capturePositions(*levelDb));
    w.f64(levelFillers->w);
    w.f64(levelFillers->h);
    w.doubles(levelFillers->cx);
    w.doubles(levelFillers->cy);
    snap.add("mlevel", w.take());
  }
  {
    ByteWriter w;
    w.doubles(capturePositions(db));
    snap.add("positions", w.take());
  }
  {
    ByteWriter w;
    w.f64(st.fillers.w);
    w.f64(st.fillers.h);
    w.doubles(st.fillers.cx);
    w.doubles(st.fillers.cy);
    snap.add("fillers", w.take());
  }
  {
    ByteWriter w;
    std::uint64_t s[4];
    jitter.saveState(s);
    for (const auto word : s) w.u64(word);
    snap.add("rng", w.take());
  }
  {
    // Environment provenance. The thread count does not affect results
    // (every kernel is thread-count deterministic) so readers ignore this
    // section; it is recorded for forensics on traces from other machines.
    ByteWriter w;
    w.i32(poolThreads);
    snap.add("env", w.take());
  }
  if (gp != nullptr) {
    ByteWriter w;
    w.doubles(gp->opt.u);
    w.doubles(gp->opt.cur);
    w.doubles(gp->opt.prev);
    w.doubles(gp->opt.curGrad);
    w.doubles(gp->opt.prevGrad);
    w.f64(gp->opt.a);
    w.f64(gp->opt.lastAlpha);
    w.i32(gp->opt.iter);
    w.f64(gp->lambda);
    w.f64(gp->tau);
    w.f64(gp->prevHpwl);
    w.f64(gp->refHpwl);
    w.i32(gp->iter);
    snap.add("optimizer", w.take());
  }
  return snap;
}

Status decodeSnapshot(const SnapshotData& snap, const PlacementDB& db,
                      ResumeData& rd) {
  const auto* meta = snap.find("meta");
  if (meta == nullptr) return Status::invalidInput("snapshot has no meta");
  {
    ByteReader r(*meta);
    const std::string name = r.str();
    const std::uint64_t nObj = r.u64();
    const std::uint64_t nNets = r.u64();
    const std::uint8_t next = r.u8();
    rd.mixedSize = r.u8() != 0;
    rd.macrosFrozen = r.u8() != 0;
    rd.mgpIterations = r.i32();
    rd.mgpFinalLambda = r.f64();
    rd.mgpStatus = static_cast<StatusCode>(r.u8());
    rd.cgpStatus = static_cast<StatusCode>(r.u8());
    rd.mip = getMetrics(r);
    rd.mgp = getMetrics(r);
    rd.mlg = getMetrics(r);
    rd.cgp = getMetrics(r);
    rd.cdp = getMetrics(r);
    // Pre-multilevel snapshots end here; treat the missing field as "flat".
    rd.mgpLevel = r.remaining() >= sizeof(std::int32_t) ? r.i32() : -1;
    if (!r.ok()) return Status::invalidInput("snapshot meta truncated");
    if (next > static_cast<std::uint8_t>(FlowStage::kDone)) {
      return Status::invalidInput("snapshot stage cursor out of range");
    }
    rd.next = static_cast<FlowStage>(next);
    if (name != db.name || nObj != db.objects.size() ||
        nNets != db.nets.size()) {
      return Status::invalidInput("snapshot is for a different instance");
    }
  }
  const auto* positions = snap.find("positions");
  if (positions == nullptr) {
    return Status::invalidInput("snapshot has no positions");
  }
  {
    ByteReader r(*positions);
    rd.positions = r.doubles();
    if (!r.ok() || rd.positions.size() != 2 * db.objects.size()) {
      return Status::invalidInput("snapshot positions malformed");
    }
    for (auto i : db.movable()) {
      const auto k = static_cast<std::size_t>(i);
      if (!std::isfinite(rd.positions[2 * k]) ||
          !std::isfinite(rd.positions[2 * k + 1])) {
        return Status::invalidInput("snapshot positions non-finite");
      }
    }
  }
  const auto* fillers = snap.find("fillers");
  if (fillers == nullptr) return Status::invalidInput("snapshot has no fillers");
  {
    ByteReader r(*fillers);
    rd.fillers.w = r.f64();
    rd.fillers.h = r.f64();
    rd.fillers.cx = r.doubles();
    rd.fillers.cy = r.doubles();
    if (!r.ok() || rd.fillers.cx.size() != rd.fillers.cy.size()) {
      return Status::invalidInput("snapshot fillers malformed");
    }
  }
  const auto* rng = snap.find("rng");
  if (rng == nullptr) return Status::invalidInput("snapshot has no rng");
  {
    ByteReader r(*rng);
    for (auto& word : rd.rng) word = r.u64();
    if (!r.ok()) return Status::invalidInput("snapshot rng malformed");
  }
  if (rd.mgpLevel >= 0) {
    const auto* ml = snap.find("mlevel");
    if (ml == nullptr) {
      return Status::invalidInput("snapshot level cursor without mlevel");
    }
    ByteReader r(*ml);
    const std::int32_t lvl = r.i32();
    rd.levelPositions = r.doubles();
    rd.levelFillers.w = r.f64();
    rd.levelFillers.h = r.f64();
    rd.levelFillers.cx = r.doubles();
    rd.levelFillers.cy = r.doubles();
    if (!r.ok() || lvl != rd.mgpLevel || rd.levelPositions.empty() ||
        rd.levelFillers.cx.size() != rd.levelFillers.cy.size()) {
      return Status::invalidInput("snapshot mlevel section malformed");
    }
    for (const double v : rd.levelPositions) {
      if (!std::isfinite(v)) {
        return Status::invalidInput("snapshot level positions non-finite");
      }
    }
  }
  if (const auto* opt = snap.find("optimizer")) {
    ByteReader r(*opt);
    rd.gp.opt.u = r.doubles();
    rd.gp.opt.cur = r.doubles();
    rd.gp.opt.prev = r.doubles();
    rd.gp.opt.curGrad = r.doubles();
    rd.gp.opt.prevGrad = r.doubles();
    rd.gp.opt.a = r.f64();
    rd.gp.opt.lastAlpha = r.f64();
    rd.gp.opt.iter = r.i32();
    rd.gp.lambda = r.f64();
    rd.gp.tau = r.f64();
    rd.gp.prevHpwl = r.f64();
    rd.gp.refHpwl = r.f64();
    rd.gp.iter = r.i32();
    const std::size_t n = rd.gp.opt.u.size();
    if (!r.ok() || n == 0 || rd.gp.opt.cur.size() != n ||
        rd.gp.opt.prev.size() != n || rd.gp.opt.curGrad.size() != n ||
        rd.gp.opt.prevGrad.size() != n) {
      return Status::invalidInput("snapshot optimizer state malformed");
    }
    rd.hasGp = true;
  }
  return Status::okStatus();
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
  /// Mid-GP checkpoint restored from a snapshot; consumed by the first
  /// attempt of the stage it belongs to.
  GpCheckpointState resumeGp;
  bool hasResumeGp = false;
  FlowStage resumeGpStage = FlowStage::kMgp;
  /// Multilevel V-cycle state. The ladder is rebuilt deterministically on
  /// resume (coarsening depends only on the netlist, geometry, and the
  /// restored positions), so it is never serialized.
  ClusterLadder ladder;
  bool ladderBuilt = false;
  int resumeGpLevel = -1;  ///< ladder level owning resumeGp (-1 = flat mGP)
  int resumeLevel = -1;    ///< ladder level to continue at (-1 = none)
  std::vector<double> resumeLevelPositions;
  FillerSet resumeLevelFillers;
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
        jitter(sup.perturbSeed),
        keepSnapshots(supervision.keepSnapshots) {
    st.cfg = cfg;
    st.ctx = &rc;
  }

  void emit(const SupervisorEvent& ev) {
    if (sup.onProgress) sup.onProgress(ev);
  }

  /// A stage may continue only while its own budget, the context's
  /// session-wide deadline, and the cancel token all have slack. A
  /// cancelled context stops retries exactly like an exhausted budget.
  [[nodiscard]] bool budgetLeft(const StagePolicy& pol, const Timer& t) const {
    if (rc.cancelled() || rc.deadlineExceeded()) return false;
    return pol.timeBudgetSeconds <= 0.0 || t.seconds() < pol.timeBudgetSeconds;
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
        buildSnapshot(db, st, next, macrosFrozen, jitter, gp,
                      rc.pool().threads(), curLevel, curLevelDb,
                      &curLevelFillers);
    const std::string path = sup.snapshotDir + "/" + snapFileName(nextSeq);
    const Status s = writeSnapshotFile(path, snap, &rc.faults());
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
    prune();
  }

  void prune() {
    auto files = listSnapshotFiles(sup.snapshotDir);
    const int keep = std::max(1, keepSnapshots);
    while (static_cast<int>(files.size()) > keep) {
      std::remove((sup.snapshotDir + "/" + files.front()).c_str());
      files.erase(files.begin());
    }
  }

  bool tryResume(ResumeData& rd) {
    const auto files = listSnapshotFiles(sup.resumeDir);
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      const std::string path = sup.resumeDir + "/" + *it;
      const auto sr = readSnapshotFile(path);
      if (!sr.ok()) {
        ++report.snapshotsRejected;
        rc.log().warn("supervisor: rejected snapshot %s: %s", it->c_str(),
                      sr.status().toString().c_str());
        continue;
      }
      rd = ResumeData{};
      const Status ds = decodeSnapshot(*sr, db, rd);
      if (!ds.ok()) {
        ++report.snapshotsRejected;
        rc.log().warn("supervisor: rejected snapshot %s: %s", it->c_str(),
                      ds.toString().c_str());
        continue;
      }
      rc.log().info("supervisor: resuming at %s from %s%s",
                    flowStageName(rd.next), it->c_str(),
                    rd.hasGp ? " (mid-stage optimizer state)" : "");
      return true;
    }
    if (!files.empty()) {
      rc.log().warn("supervisor: no usable snapshot in %s; starting fresh",
                    sup.resumeDir.c_str());
    }
    return false;
  }

  /// Restores everything a snapshot carries and emits `resumed` report rows
  /// for the stages the snapshot already covers.
  void applyResume(const ResumeData& rd) {
    restorePositions(db, rd.positions);
    st.mixedSize = rd.mixedSize;
    st.fillers = rd.fillers;
    jitter.loadState(rd.rng);
    if (rd.macrosFrozen) {
      flowFreezeMacros(db);
      macrosFrozen = true;
    }
    st.res.mip = rd.mip;
    st.res.mgp = rd.mgp;
    st.res.mlg = rd.mlg;
    st.res.cgp = rd.cgp;
    st.res.cdp = rd.cdp;
    st.res.mgpResult.iterations = rd.mgpIterations;
    st.res.mgpResult.finalLambda = rd.mgpFinalLambda;
    if (rd.mgpStatus != StatusCode::kOk) {
      st.res.mgpResult.status = Status(rd.mgpStatus, "restored from snapshot");
    }
    if (rd.cgpStatus != StatusCode::kOk) {
      st.res.cgpResult.status = Status(rd.cgpStatus, "restored from snapshot");
    }
    const struct {
      FlowStage stage;
      const StageMetrics& m;
    } done[] = {{FlowStage::kMip, rd.mip},
                {FlowStage::kMgp, rd.mgp},
                {FlowStage::kMlg, rd.mlg},
                {FlowStage::kCgp, rd.cgp},
                {FlowStage::kCdp, rd.cdp}};
    for (const auto& d : done) {
      if (!d.m.ran) continue;
      StageReport rep;
      rep.stage = d.stage;
      rep.resumed = true;
      rep.seconds = d.m.seconds;
      rep.note = "restored from snapshot";
      report.stages.push_back(rep);
    }
    resumeLevel = rd.mgpLevel;
    resumeLevelPositions = rd.levelPositions;
    resumeLevelFillers = rd.levelFillers;
    if (rd.hasGp) {
      resumeGp = rd.gp;
      hasResumeGp = true;
      resumeGpStage = rd.next;
      resumeGpLevel = rd.mgpLevel;
    }
    report.resumed = true;
    report.resumeStage = rd.next;
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kResume;
    ev.stage = rd.next;
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
  bool runOneCoarseLevel(int k) {
    PlacementDB& ldb = ladder.levels[static_cast<std::size_t>(k)].coarse;
    Timer t;
    const auto entry = capturePositions(ldb);
    GpConfig gcfg = st.cfg.gp;
    gcfg.maxIterations = std::max(1, sup.multilevel.levelMaxIterations);
    gcfg.targetOverflow =
        std::max(gcfg.targetOverflow, sup.multilevel.levelTargetOverflow);
    GlobalPlacer gp(ldb, ldb.movable(), gcfg, &rc);
    GpRunControl ctl;
    const bool resumeHere = hasResumeGp &&
                            resumeGpStage == FlowStage::kMgp &&
                            resumeGpLevel == k;
    if (resumeHere && resumeLevelFillers.size() > 0) {
      gp.setFillers(resumeLevelFillers);
      ctl.resume = &resumeGp;
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
    GlobalPlacer::TraceFn trace;
    if (st.cfg.gpTrace) {
      const std::string label = "mGP@L" + std::to_string(k);
      trace = [this, label](const GpIterTrace& it) {
        st.cfg.gpTrace(label, it);
      };
    }
    GpResult r;
    bool memBreach = false;
    try {
      r = gp.run(trace, ctl);
    } catch (const MemoryBudgetExceeded& e) {
      memBreach = true;
      rc.stats().add("supervisor.memBreaches", 1.0);
      rc.log().warn("supervisor: mGP@L%d memory budget breach (%s); "
                    "abandoning coarse levels",
                    k, e.what());
    }
    if (resumeHere) hasResumeGp = false;
    curLevel = -1;
    curLevelDb = nullptr;
    if (memBreach || !movablesFiniteInCore(ldb)) {
      restorePositions(ldb, entry);
      if (!memBreach) {
        bumpStage(FlowStage::kMgp, "rollbacks", 1.0);
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
    return !memBreach;
  }

  /// The coarse half of the V-cycle, run before flat mGP: coarsest level
  /// first, each level seeding the next-finer instance via uncoarsening,
  /// with a boundary snapshot per level so a killed run resumes mid-ladder
  /// bit-exactly.
  void runCoarseLevels() {
    if (!multilevelEngaged()) return;
    if (!ladderBuilt) {
      auto lr = buildClusterLadder(db, sup.multilevel.cluster, &rc);
      if (!lr.ok()) {
        rc.log().warn("supervisor: clustering failed (%s); flat mGP only",
                      lr.status().toString().c_str());
        return;
      }
      ladder = std::move(*lr);
      ladderBuilt = true;
    }
    if (ladder.empty()) return;
    const int depth = static_cast<int>(ladder.depth());
    int start = depth - 1;
    if (resumeLevel >= 0) {
      // Continue at the snapshot's level when its shape matches the
      // deterministically rebuilt ladder; otherwise restart the ladder from
      // the top — correct either way, coarse levels are only seeds.
      PlacementDB* ldb = resumeLevel < depth
                             ? &ladder.levels[static_cast<std::size_t>(
                                                  resumeLevel)]
                                    .coarse
                             : nullptr;
      if (ldb != nullptr &&
          resumeLevelPositions.size() == 2 * ldb->objects.size()) {
        restorePositions(*ldb, resumeLevelPositions);
        start = resumeLevel;
      } else {
        rc.log().warn(
            "supervisor: snapshot level %d does not match the rebuilt "
            "ladder; restarting coarse levels",
            resumeLevel);
        if (resumeGpLevel >= 0) hasResumeGp = false;
      }
      resumeLevel = -1;
    }
    bumpStage(FlowStage::kMgp, "levels", static_cast<double>(start + 1));
    for (int k = start; k >= 0; --k) {
      if (rc.cancelled()) return;  // the flat stage reports the cancel
      if (!runOneCoarseLevel(k)) return;
      if (rc.cancelled()) return;
      PlacementDB& fine =
          k == 0 ? db : ladder.levels[static_cast<std::size_t>(k - 1)].coarse;
      const Status us =
          uncoarsenPositions(ladder.levels[static_cast<std::size_t>(k)], fine);
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
        curLevelFillers = FillerSet{};
        saveSnapshot(FlowStage::kMgp, nullptr);
        curLevel = -1;
        curLevelDb = nullptr;
      } else {
        saveSnapshot(FlowStage::kMgp, nullptr);
      }
    }
  }

  void runGpStage(FlowStage stage) {
    const bool isMgp = stage == FlowStage::kMgp;
    const StagePolicy& pol = isMgp ? sup.mgp : sup.cgp;
    StageReport rep;
    rep.stage = stage;
    Timer t;
    const auto entry = capturePositions(db);
    const GpConfig baseGp = st.cfg.gp;
    const FillerSet entryFillers = st.fillers;
    bool accepted = false;
    bool memBreach = false;
    for (int attempt = 0; attempt < std::max(1, pol.maxAttempts); ++attempt) {
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
              static_cast<double>(attempt) * sup.overflowRetryRelax;
          st.cfg.gp.fillerSeed =
              baseGp.fillerSeed + 7919ULL * static_cast<std::uint64_t>(attempt);
          appendNote(rep, "retry with relaxed target overflow");
        }
      }
      if (pol.timeBudgetSeconds > 0.0) {
        st.cfg.gp.health.timeBudgetSeconds =
            std::max(1e-3, pol.timeBudgetSeconds - t.seconds());
      }
      GpRunControl ctl;
      if (attempt == 0 && hasResumeGp && resumeGpStage == stage &&
          resumeGpLevel < 0) {
        // A checkpoint belonging to a coarse ladder level is consumed by
        // runOneCoarseLevel, never by the flat stage.
        ctl.resume = &resumeGp;
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
        if (!budgetLeft(pol, t)) break;
        continue;
      }
      const GpResult& r = isMgp ? st.res.mgpResult : st.res.cgpResult;
      const bool gate = movablesFiniteInCore(db);
      rep.status = r.status;
      if (gate && r.status.ok()) {
        accepted = true;
        break;
      }
      if (gate && (attempt + 1 >= pol.maxAttempts || !budgetLeft(pol, t))) {
        // Out of retries (or time) but the placement is usable: keep the
        // degraded result; flowFinish reports the stage status.
        accepted = true;
        appendNote(rep, "accepted degraded result");
        break;
      }
      if (!gate && !budgetLeft(pol, t)) break;
    }
    st.cfg.gp = baseGp;
    if (hasResumeGp && resumeGpStage == stage) hasResumeGp = false;
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
      if (st.res.status.ok()) st.res.status = rep.status;
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
    for (int attempt = 0; attempt < std::max(1, sup.mlg.maxAttempts);
         ++attempt) {
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
      if (legal || !budgetLeft(sup.mlg, t)) break;
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
      if (rc.cancelled() && st.res.status.ok()) st.res.status = rep.status;
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
    return preHpwl <= 0.0 || h <= preHpwl * sup.legalizeHpwlCap;
  }

  void runCdp() {
    StageReport rep;
    rep.stage = FlowStage::kCdp;
    Timer t;
    const auto entry = capturePositions(db);
    const double preHpwl = hpwl(db);
    bool legalOk = false;
    for (int attempt = 0;
         attempt < std::max(1, sup.cdp.maxAttempts) && !legalOk; ++attempt) {
      if (attempt > 0) {
        restorePositions(db, entry);
        jitterStdCells();
        appendNote(rep, "retry with jittered cells");
      }
      ++rep.attempts;
      st.res.legalizeResult = legalizeCells(db, &rc);
      legalOk = legalGateOk(preHpwl);
      if (!legalOk && !budgetLeft(sup.cdp, t)) break;
    }
    if (!legalOk && sup.allowFallbacks) {
      restorePositions(db, entry);
      ++rep.attempts;
      rep.fellBack = true;
      st.res.legalizeResult = greedyLegalizeCells(db, &rc);
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
      if (st.res.status.ok()) st.res.status = rep.status;
    } else {
      const auto postLegal = capturePositions(db);
      const double postLegalHpwl = hpwl(db);
      st.res.detailResult = detailPlace(db, st.cfg.detail, &rc);
      const double after = hpwl(db);
      const bool detailOk =
          std::isfinite(after) &&
          after <= postLegalHpwl * (1.0 + sup.detailRegressionTol) &&
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
      makeDirs(sup.snapshotDir);
      const auto existing = listSnapshotFiles(sup.snapshotDir);
      if (!existing.empty()) nextSeq = snapSeqOf(existing.back()) + 1;
    }
    FlowStage next = FlowStage::kMip;
    if (!sup.resumeDir.empty()) {
      ResumeData rd;
      if (tryResume(rd)) {
        applyResume(rd);
        next = rd.next;
      }
    }
    while (next != FlowStage::kDone) {
      if (rc.cancelled()) {
        if (st.res.status.ok()) {
          st.res.status = Status::cancelled("flow cancelled before " +
                                            std::string(flowStageName(next)) +
                                            " (" + rc.cancelReason() + ")");
        }
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
        if (st.res.status.ok()) {
          st.res.status =
              Status::cancelled("flow cancelled (" + rc.cancelReason() + ")");
        }
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
  for (StagePolicy* p : {&sup.mip, &sup.mgp, &sup.mlg, &sup.cgp, &sup.cdp}) {
    p->maxAttempts = 1;
  }
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
  out += "  stage  att  time(s)  outcome   note\n";
  for (const auto& r : stages) {
    const char* outcome = "ok";
    if (r.resumed && r.attempts == 0) {
      outcome = "resumed";
    } else if (r.skipped) {
      outcome = "skipped";
    } else if (!r.status.ok()) {
      outcome = statusCodeName(r.status.code());
    } else if (r.fellBack) {
      outcome = "fallback";
    }
    std::snprintf(line, sizeof line, "  %-5s  %3d  %7.2f  %-8s  %s\n",
                  flowStageName(r.stage), r.attempts, r.seconds, outcome,
                  r.note.c_str());
    out += line;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

StatusOr<FlowResult> runSupervisedFlow(PlacementDB& db, const FlowConfig& cfg,
                                       const SupervisorConfig& sup,
                                       SupervisorReport* report,
                                       RuntimeContext* ctx) {
  RuntimeContext& rc = resolveContext(ctx);
  SupervisorReport local;
  SupervisorReport& rep = report != nullptr ? *report : local;
  rep = SupervisorReport{};
  int repaired = 0;
  const Status s = db.sanitize(&repaired);
  if (!s.ok()) return s;
  if (repaired > 0) {
    rc.log().warn("flow: sanitize repaired %d object position(s)", repaired);
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

RunRecord buildRunRecord(const PlacementDB& db, const FlowResult& res,
                         const SupervisorReport* report, RuntimeContext* ctx,
                         bool supervised) {
  RuntimeContext& rc = resolveContext(ctx);
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
    StageRecord sr;
    sr.stage = "mGP@L" + std::to_string(lm.level);
    sr.ran = lm.metrics.ran;
    sr.wallMs = lm.metrics.seconds * 1000.0;
    sr.iterations = lm.metrics.iterations;
    sr.hpwl = lm.metrics.hpwl;
    sr.hpwlBits = doubleBits(lm.metrics.hpwl);
    sr.overflow = lm.metrics.overflow;
    rec.stages.push_back(std::move(sr));
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
    StageRecord sr;
    sr.stage = flowStageName(row.stage);
    sr.ran = row.m.ran;
    sr.wallMs = row.m.seconds * 1000.0;
    sr.iterations = row.m.iterations;
    sr.hpwl = row.m.hpwl;
    sr.hpwlBits = doubleBits(row.m.hpwl);
    sr.overflow = row.m.overflow;
    sr.recoveries = row.recoveries;
    if (report != nullptr) {
      for (const StageReport& rep : report->stages) {
        if (rep.stage != row.stage) continue;
        sr.retries += std::max(0, rep.attempts - 1);
      }
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
  rec.snapshotsWritten = report != nullptr ? report->snapshotsWritten : 0;
  rec.status = statusCodeName(res.status.code());
  for (const auto& [k, v] : rc.stats().snapshot()) rec.stats.emplace_back(k, v);
  return rec;
}

}  // namespace ep
