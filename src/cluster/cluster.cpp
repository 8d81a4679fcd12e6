#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/context.h"
#include "util/log.h"

namespace ep {

namespace {

/// Stop adding levels once a level shrinks the movable count by less
/// than this factor (clusters/fine >= kStopRatio means matching has
/// saturated and further levels buy nothing).
constexpr double kStopRatio = 0.75;
/// Nets above this degree are skipped when scoring (a huge net connects
/// everything to everything and carries no locality signal).
constexpr std::size_t kMaxScoreNetDegree = 16;
/// Cluster area cap in multiples of the mean movable area at that level;
/// keeps one cluster from swallowing a neighborhood.
constexpr double kMaxClusterAreaFactor = 24.0;

/// True for objects the matcher may merge: movable standard cells. Fixed
/// objects, IO pads and movable macros pass through 1:1 (macros go to mLG,
/// fixed charge must stay bit-identical per level).
bool clusterable(const Object& o) {
  return !o.fixed && o.kind == ObjKind::kStdCell;
}

/// Cluster dims for a merged area: height snapped to the row pitch (so the
/// coarse instance still looks like a standard-cell design to the density
/// model), width chosen as area/height so the area is conserved exactly up
/// to one rounding.
void clusterDims(double area, double rowH, double* w, double* h) {
  double hh = std::sqrt(area);
  if (rowH > 0.0) {
    hh = std::max(rowH, std::round(hh / rowH) * rowH);
  }
  *h = hh;
  *w = area / hh;
}

/// One best-choice matching pass over the fine instance. Returns the
/// coarsening level, or an empty optional-equivalent via matched count so
/// the caller can stop when matching saturates.
ClusterLevel buildOneLevel(const PlacementDB& fine, int levelIndex,
                           std::size_t* mergedOut) {
  const PlacementView& pv = fine.view();
  const auto objNetStart = pv.objNetStart();
  const auto objNetIds = pv.objNetIds();
  const auto netPinStart = pv.netPinStart();
  const auto pinObj = pv.pinObj();
  const auto netWeight = pv.netWeight();
  const std::size_t nObj = fine.objects.size();

  const double totalArea = fine.totalMovableArea();
  const std::size_t nMov = std::max<std::size_t>(1, fine.numMovable());
  const double areaCap =
      kMaxClusterAreaFactor * (totalArea / static_cast<double>(nMov));

  // --- best-choice matching (serial, index order => deterministic) --------
  std::vector<std::int32_t> mate(nObj, -1);
  std::vector<double> score(nObj, 0.0);
  std::vector<std::int32_t> touched;
  touched.reserve(64);
  std::size_t merged = 0;
  for (std::size_t i = 0; i < nObj; ++i) {
    const auto ii = static_cast<std::int32_t>(i);
    if (mate[i] != -1 || !clusterable(fine.objects[i])) continue;
    const std::size_t nb = static_cast<std::size_t>(objNetStart[i]);
    const std::size_t ne = static_cast<std::size_t>(objNetStart[i + 1]);
    touched.clear();
    for (std::size_t k = nb; k < ne; ++k) {
      const auto net = static_cast<std::size_t>(objNetIds[k]);
      const std::size_t pb = static_cast<std::size_t>(netPinStart[net]);
      const std::size_t pe = static_cast<std::size_t>(netPinStart[net + 1]);
      const std::size_t deg = pe - pb;
      if (deg < 2 || deg > kMaxScoreNetDegree) continue;
      const double s = netWeight[net] / static_cast<double>(deg - 1);
      for (std::size_t p = pb; p < pe; ++p) {
        const std::int32_t j = pinObj[p];
        if (j == ii) continue;
        const auto ju = static_cast<std::size_t>(j);
        if (mate[ju] != -1 || !clusterable(fine.objects[ju])) continue;
        if (score[ju] == 0.0) touched.push_back(j);
        score[ju] += s;
      }
    }
    // Highest affinity wins; ties break to the smallest index so the
    // result is independent of the touch order.
    std::int32_t best = -1;
    double bestScore = 0.0;
    for (const std::int32_t j : touched) {
      const auto ju = static_cast<std::size_t>(j);
      const double sj = score[ju];
      if (sj > bestScore || (sj == bestScore && best != -1 && j < best)) {
        if (fine.objects[i].area() + fine.objects[ju].area() <= areaCap) {
          best = j;
          bestScore = sj;
        }
      }
      score[ju] = 0.0;
    }
    if (best != -1) {
      mate[i] = best;
      mate[static_cast<std::size_t>(best)] = ii;
      ++merged;
    }
  }
  *mergedOut = merged;

  ClusterLevel lvl;
  lvl.fineObjects = nObj;
  lvl.fineMovable = fine.numMovable();
  lvl.fineNets = fine.nets.size();
  if (merged == 0) return lvl;  // matching saturated; caller stops

  // --- assemble the coarse instance --------------------------------------
  PlacementDB& cdb = lvl.coarse;
  cdb.name = fine.name + "_L" + std::to_string(levelIndex);
  cdb.region = fine.region;
  cdb.targetDensity = fine.targetDensity;
  cdb.rows = fine.rows;
  const double rowH = fine.rows.empty() ? 0.0 : fine.rows.front().height;

  lvl.fineToCoarse.assign(nObj, -1);
  lvl.memberStart.reserve(nObj - merged + 1);
  lvl.members.reserve(nObj);
  cdb.objects.reserve(nObj - merged);
  lvl.memberStart.push_back(0);
  for (std::size_t i = 0; i < nObj; ++i) {
    const std::int32_t m = mate[i];
    if (m != -1 && static_cast<std::size_t>(m) < i) continue;  // second half
    const auto cid = static_cast<std::int32_t>(cdb.objects.size());
    lvl.fineToCoarse[i] = cid;
    lvl.members.push_back(static_cast<std::int32_t>(i));
    const Object& a = fine.objects[i];
    if (m == -1) {
      cdb.objects.push_back(a);  // pass-through, bit-identical geometry
    } else {
      const auto mu = static_cast<std::size_t>(m);
      lvl.fineToCoarse[mu] = cid;
      lvl.members.push_back(m);
      const Object& b = fine.objects[mu];
      Object c;
      c.name = "cl" + std::to_string(levelIndex) + "_" + std::to_string(cid);
      c.kind = ObjKind::kStdCell;
      c.fixed = false;
      const double area = a.area() + b.area();
      clusterDims(area, rowH, &c.w, &c.h);
      const Point ca = a.center();
      const Point cb = b.center();
      const double wa = a.area() / area;
      const double wb = b.area() / area;
      c.setCenter(wa * ca.x + wb * cb.x, wa * ca.y + wb * cb.y);
      cdb.objects.push_back(std::move(c));
    }
    lvl.memberStart.push_back(static_cast<std::int32_t>(lvl.members.size()));
  }

  // Rewire nets: pins collapse onto coarse endpoints; duplicates on the
  // same endpoint merge (first pin wins, cluster pins move to the center);
  // nets left with < 2 distinct endpoints no longer exert force and drop.
  cdb.nets.reserve(fine.nets.size());
  std::vector<std::int32_t> seenAt(cdb.objects.size(), -1);
  for (std::size_t n = 0; n < fine.nets.size(); ++n) {
    const Net& fn = fine.nets[n];
    Net cn;
    cn.name = fn.name;
    cn.weight = fn.weight;
    cn.pins.reserve(fn.pins.size());
    for (const PinRef& p : fn.pins) {
      const std::int32_t cid = lvl.fineToCoarse[static_cast<std::size_t>(p.obj)];
      if (seenAt[static_cast<std::size_t>(cid)] == static_cast<std::int32_t>(n)) {
        continue;  // second pin on the same coarse object
      }
      seenAt[static_cast<std::size_t>(cid)] = static_cast<std::int32_t>(n);
      PinRef cp = p;
      cp.obj = cid;
      const bool mergedObj =
          lvl.memberStart[static_cast<std::size_t>(cid) + 1] -
              lvl.memberStart[static_cast<std::size_t>(cid)] >
          1;
      if (mergedObj) {
        cp.ox = 0.0;  // cluster pins sit at the cluster center
        cp.oy = 0.0;
      }
      cn.pins.push_back(cp);
    }
    if (cn.pins.size() >= 2) cdb.nets.push_back(std::move(cn));
  }
  cdb.finalize();
  return lvl;
}

}  // namespace

StatusOr<ClusterLadder> buildClusterLadder(const PlacementDB& db,
                                           const ClusterConfig& cfg,
                                           RuntimeContext* ctx) {
  RuntimeContext& rc = *ctx;
  if (const Status v = db.validate(); !v.ok()) {
    return Status::invalidInput("buildClusterLadder: " + v.message());
  }
  ClusterLadder ladder;
  const PlacementDB* fine = &db;
  for (std::size_t level = 0; level < cfg.maxLevels; ++level) {
    if (fine->numMovable() <= cfg.minMovable) break;
    std::size_t merged = 0;
    ClusterLevel lvl = buildOneLevel(*fine, static_cast<int>(level), &merged);
    if (merged == 0) break;
    const std::size_t fineMov = lvl.fineMovable;
    const std::size_t coarseMov = lvl.coarse.numMovable();
    rc.log().info(
        "cluster: level %zu: %zu -> %zu movable (%zu merges), %zu -> %zu nets",
        level, fineMov, coarseMov, merged, lvl.fineNets,
        lvl.coarse.nets.size());
    rc.stats().add("cluster.levels", 1.0);
    rc.stats().add("cluster.merges", static_cast<double>(merged));
    ladder.levels.push_back(std::move(lvl));
    fine = &ladder.levels.back().coarse;
    if (static_cast<double>(coarseMov) >=
        kStopRatio * static_cast<double>(fineMov)) {
      break;  // diminishing returns
    }
  }
  return ladder;
}

Status uncoarsenPositions(const ClusterLevel& level, PlacementDB& fine) {
  if (fine.objects.size() != level.fineObjects) {
    return Status::invalidInput(
        "uncoarsenPositions: fine instance has " +
        std::to_string(fine.objects.size()) + " objects, level was built on " +
        std::to_string(level.fineObjects));
  }
  const PlacementDB& coarse = level.coarse;
  PlacementView& pv = fine.view();
  for (std::size_t c = 0; c < coarse.objects.size(); ++c) {
    const Object& co = coarse.objects[c];
    const auto mb = static_cast<std::size_t>(level.memberStart[c]);
    const auto me = static_cast<std::size_t>(level.memberStart[c + 1]);
    if (me - mb == 1) {
      // Pass-through: copy the lower-left corner bit-exactly (same dims).
      const auto f = static_cast<std::size_t>(level.members[mb]);
      fine.objects[f].lx = co.lx;
      fine.objects[f].ly = co.ly;
      pv.setPosition(level.members[mb], co.lx, co.ly);
    } else {
      const Point ctr = co.center();
      for (std::size_t k = mb; k < me; ++k) {
        const auto f = static_cast<std::size_t>(level.members[k]);
        fine.objects[f].setCenter(ctr.x, ctr.y);
        pv.setPosition(level.members[k], fine.objects[f].lx,
                       fine.objects[f].ly);
      }
    }
  }
  return Status::okStatus();
}

}  // namespace ep
