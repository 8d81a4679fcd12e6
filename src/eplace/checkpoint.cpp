#include "eplace/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/io.h"

namespace ep {

namespace {

constexpr const char* kSnapPrefix = "snap_";
constexpr const char* kSnapSuffix = ".epsnap";
/// Highest number in the ring, one below INT_MAX so that the next number
/// still fits the int sequence.
constexpr std::uint64_t kMaxSeq = std::numeric_limits<int>::max() - 1;

// Each section's fields are listed once, in fields() calls that serve both
// directions: with a ByteWriter they write the values, with a ByteReader
// they read into them, so writer and reader cannot disagree on the order.
void field(ByteWriter& w, const double& v) { w.f64(v); }
void field(ByteReader& r, double& v) { v = r.f64(); }
void field(ByteWriter& w, const int& v) { w.i32(v); }
void field(ByteReader& r, int& v) { v = r.i32(); }
void field(ByteWriter& w, const bool& v) { w.u8(v ? 1 : 0); }
void field(ByteReader& r, bool& v) { v = r.u8() != 0; }
void field(ByteWriter& w, const std::vector<double>& v) { w.doubles(v); }
void field(ByteReader& r, std::vector<double>& v) { v = r.doubles(); }

template <class Stream, class... T>
void fields(Stream& s, T&... v) {
  (field(s, v), ...);
}

template <class Stream, class Result>
void stageMetricsFields(Stream& s, Result& res) {
  for (auto* m : {&res.mip, &res.mgp, &res.mlg, &res.cgp, &res.cdp}) {
    fields(s, m->hpwl, m->overflow, m->seconds, m->iterations, m->ran);
  }
}

template <class Stream, class Fillers>
void fillerFields(Stream& s, Fillers& f) {
  fields(s, f.w, f.h, f.cx, f.cy);
}

template <class Stream, class Gp>
void optimizerFields(Stream& s, Gp& gp) {
  fields(s, gp.opt.u, gp.opt.cur, gp.opt.prev, gp.opt.curGrad,
         gp.opt.prevGrad, gp.opt.a, gp.opt.lastAlpha, gp.opt.iter, gp.lambda,
         gp.tau, gp.prevHpwl, gp.refHpwl, gp.iter);
}

Status restoredStatus(std::uint8_t code) {
  const auto c = static_cast<StatusCode>(code);
  return c == StatusCode::kOk ? Status() : Status(c, "restored from snapshot");
}

std::vector<io::NumberedFile> listRing(const std::string& dir) {
  return io::listNumberedFiles(dir, kSnapPrefix, kSnapSuffix, kMaxSeq);
}

}  // namespace

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

SnapshotData encodeCheckpoint(PlacementDB& db, const FlowState& st,
                              FlowStage next, bool macrosFrozen,
                              const Rng& jitter, const GpCheckpointState* gp,
                              int poolThreads, int level,
                              PlacementDB* levelDb,
                              const FillerSet* levelFillers) {
  SnapshotData snap;
  {
    ByteWriter w;
    w.str(db.name);
    w.u64(db.objects.size());
    w.u64(db.nets.size());
    w.u8(static_cast<std::uint8_t>(next));
    fields(w, st.mixedSize, macrosFrozen, st.res.mgpResult.iterations,
           st.res.mgpResult.finalLambda);
    w.u8(static_cast<std::uint8_t>(st.res.mgpResult.status.code()));
    w.u8(static_cast<std::uint8_t>(st.res.cgpResult.status.code()));
    stageMetricsFields(w, st.res);
    w.i32(level);  // trailing field; absent in pre-multilevel snapshots
    snap.add("meta", w.take());
  }
  if (level >= 0 && levelDb != nullptr) {
    ByteWriter w;
    w.i32(level);
    w.doubles(capturePositions(*levelDb));
    fillerFields(w, *levelFillers);
    snap.add("mlevel", w.take());
  }
  {
    ByteWriter w;
    w.doubles(capturePositions(db));
    snap.add("positions", w.take());
  }
  {
    ByteWriter w;
    fillerFields(w, st.fillers);
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
    optimizerFields(w, *gp);
    snap.add("optimizer", w.take());
  }
  return snap;
}

StatusOr<Checkpoint> decodeCheckpoint(const SnapshotData& snap,
                                      const PlacementDB& db) {
  Checkpoint cp;
  const auto* meta = snap.find("meta");
  if (meta == nullptr) return Status::invalidInput("snapshot has no meta");
  {
    ByteReader r(*meta);
    const std::string name = r.str();
    const std::uint64_t nObj = r.u64();
    const std::uint64_t nNets = r.u64();
    const std::uint8_t next = r.u8();
    fields(r, cp.mixedSize, cp.macrosFrozen, cp.res.mgpResult.iterations,
           cp.res.mgpResult.finalLambda);
    cp.res.mgpResult.status = restoredStatus(r.u8());
    cp.res.cgpResult.status = restoredStatus(r.u8());
    stageMetricsFields(r, cp.res);
    // Pre-multilevel snapshots end here; treat the missing field as "flat".
    cp.level = r.remaining() >= sizeof(std::int32_t) ? r.i32() : -1;
    if (!r.ok()) return Status::invalidInput("snapshot meta truncated");
    if (next > static_cast<std::uint8_t>(FlowStage::kDone)) {
      return Status::invalidInput("snapshot stage cursor out of range");
    }
    cp.next = static_cast<FlowStage>(next);
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
    cp.positions = r.doubles();
    if (!r.ok() || cp.positions.size() != 2 * db.objects.size()) {
      return Status::invalidInput("snapshot positions malformed");
    }
    for (auto i : db.movable()) {
      const auto k = static_cast<std::size_t>(i);
      if (!std::isfinite(cp.positions[2 * k]) ||
          !std::isfinite(cp.positions[2 * k + 1])) {
        return Status::invalidInput("snapshot positions non-finite");
      }
    }
  }
  const auto* fillers = snap.find("fillers");
  if (fillers == nullptr) return Status::invalidInput("snapshot has no fillers");
  {
    ByteReader r(*fillers);
    fillerFields(r, cp.fillers);
    if (!r.ok() || cp.fillers.cx.size() != cp.fillers.cy.size()) {
      return Status::invalidInput("snapshot fillers malformed");
    }
  }
  const auto* rng = snap.find("rng");
  if (rng == nullptr) return Status::invalidInput("snapshot has no rng");
  {
    ByteReader r(*rng);
    for (auto& word : cp.rng) word = r.u64();
    if (!r.ok()) return Status::invalidInput("snapshot rng malformed");
  }
  if (cp.level >= 0) {
    const auto* ml = snap.find("mlevel");
    if (ml == nullptr) {
      return Status::invalidInput("snapshot level cursor without mlevel");
    }
    ByteReader r(*ml);
    const std::int32_t lvl = r.i32();
    cp.levelPositions = r.doubles();
    fillerFields(r, cp.levelFillers);
    if (!r.ok() || lvl != cp.level || cp.levelPositions.empty() ||
        cp.levelFillers.cx.size() != cp.levelFillers.cy.size()) {
      return Status::invalidInput("snapshot mlevel section malformed");
    }
    for (const double v : cp.levelPositions) {
      if (!std::isfinite(v)) {
        return Status::invalidInput("snapshot level positions non-finite");
      }
    }
  }
  if (const auto* opt = snap.find("optimizer")) {
    ByteReader r(*opt);
    const GpCheckpointState& gp = cp.gp;
    optimizerFields(r, cp.gp);
    const std::size_t n = gp.opt.u.size();
    if (!r.ok() || n == 0 || gp.opt.cur.size() != n ||
        gp.opt.prev.size() != n || gp.opt.curGrad.size() != n ||
        gp.opt.prevGrad.size() != n) {
      return Status::invalidInput("snapshot optimizer state malformed");
    }
    cp.hasGp = true;
  }
  return cp;
}

StatusOr<Checkpoint> readCheckpoint(const std::string& path,
                                    const PlacementDB& db) {
  const StatusOr<SnapshotData> snap = readSnapshotFile(path);
  if (!snap.ok()) return snap.status();
  return decodeCheckpoint(*snap, db);
}

std::string snapshotPath(const std::string& dir, int seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/%s%06d%s", kSnapPrefix, seq, kSnapSuffix);
  return dir + buf;
}

std::vector<std::string> listSnapshots(const std::string& dir) {
  const auto files = listRing(dir);
  std::vector<std::string> paths;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    paths.push_back(dir + "/" + it->name);
  }
  return paths;
}

int nextSnapshotSeq(const std::string& dir) {
  const auto files = listRing(dir);
  return files.empty() ? 0 : static_cast<int>(files.back().number) + 1;
}

void pruneSnapshots(const std::string& dir, int keep) {
  const auto files = listRing(dir);
  const std::size_t kept = static_cast<std::size_t>(std::max(1, keep));
  for (std::size_t i = 0; i + kept < files.size(); ++i) {
    std::remove((dir + "/" + files[i].name).c_str());
  }
}

}  // namespace ep
