#include "baseline/mincut.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "baseline/fm.h"
#include "util/context.h"
#include "util/log.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Stop recursion at this many objects.
constexpr std::size_t kLeafCells = 8;
constexpr double kBalanceTolerance = 0.15;
constexpr int kFmPasses = 6;
constexpr std::uint64_t kSeed = 31;

double freeCapacity(const PlacementDB& db, const Rect& r) {
  const PlacementView& pv = db.view();
  const auto fixedMask = pv.fixedMask();
  const auto lx = pv.lx();
  const auto ly = pv.ly();
  const auto w = pv.w();
  const auto h = pv.h();
  double fixedArea = 0.0;
  for (std::size_t i = 0; i < pv.numObjects(); ++i) {
    if (fixedMask[i] == 0) continue;
    const Rect o{lx[i], ly[i], lx[i] + w[i], ly[i] + h[i]};
    fixedArea += o.overlapArea(r);
  }
  return std::max(0.0, r.area() - fixedArea);
}

}  // namespace

MinCutResult minCutPlace(PlacementDB& db, RuntimeContext& rc) {
  MinCutResult res;
  Rng rng(kSeed);

  // Stage boundary: refresh the view so freeCapacity() stamps current
  // fixed rects; topology spans below (CSRs, areas) are finalize()-stable.
  const PlacementView& pv = db.view();
  db.view().syncPositionsFromDb(db);
  const auto objArea = pv.area();
  const auto netPinStart = pv.netPinStart();
  const auto pinObj = pv.pinObj();
  const auto pinOx = pv.pinOx();
  const auto pinOy = pv.pinOy();

  struct Task {
    Rect region;
    std::vector<std::int32_t> objs;
    int depth;
  };
  std::deque<Task> queue;
  queue.push_back({db.region, db.movable(), 0});

  // Net-visited stamp to deduplicate nets per task.
  std::vector<std::int32_t> netStamp(db.nets.size(), -1);
  std::int32_t stamp = 0;
  // Local id of each db object in the current task, reused across tasks.
  std::vector<std::int32_t> lookup;

  while (!queue.empty()) {
    Task task = std::move(queue.front());
    queue.pop_front();
    res.maxDepth = std::max(res.maxDepth, task.depth);

    if (task.objs.size() <= kLeafCells || task.region.width() < 2.0 ||
        task.region.height() < 2.0) {
      // Leaf: spread objects on a small grid inside the region.
      const auto cols = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(task.objs.size()))));
      for (std::size_t k = 0; k < task.objs.size(); ++k) {
        auto& o = db.objects[static_cast<std::size_t>(task.objs[k])];
        const std::size_t cx = k % cols, cy = k / cols;
        const double fx = (static_cast<double>(cx) + 0.5) /
                          static_cast<double>(cols);
        const double fy = (static_cast<double>(cy) + 0.5) /
                          static_cast<double>((task.objs.size() + cols - 1) / cols);
        const double px = task.region.lx + fx * task.region.width();
        const double py = task.region.ly + fy * task.region.height();
        o.setCenter(std::clamp(px, db.region.lx + o.w * 0.5,
                               db.region.hx - o.w * 0.5),
                    std::clamp(py, db.region.ly + o.h * 0.5,
                               db.region.hy - o.h * 0.5));
      }
      continue;
    }

    // Split the longer axis at the midpoint.
    const bool splitX = task.region.width() >= task.region.height();
    Rect a = task.region, b = task.region;
    double cut;
    if (splitX) {
      cut = task.region.center().x;
      a.hx = cut;
      b.lx = cut;
    } else {
      cut = task.region.center().y;
      a.hy = cut;
      b.ly = cut;
    }

    // FM problem with a virtual locked terminal per side for propagation.
    FmProblem fm;
    const std::size_t nLocal = task.objs.size();
    fm.areas.resize(nLocal + 2);
    lookup.assign(db.objects.size(), -1);
    for (std::size_t k = 0; k < nLocal; ++k) {
      lookup[static_cast<std::size_t>(task.objs[k])] =
          static_cast<std::int32_t>(k);
      fm.areas[k] = objArea[static_cast<std::size_t>(task.objs[k])];
    }
    const auto term0 = static_cast<std::int32_t>(nLocal);
    const auto term1 = static_cast<std::int32_t>(nLocal + 1);
    fm.areas[static_cast<std::size_t>(term0)] = 0.0;
    fm.areas[static_cast<std::size_t>(term1)] = 0.0;
    fm.locked.assign(nLocal + 2, -1);
    fm.locked[static_cast<std::size_t>(term0)] = 0;
    fm.locked[static_cast<std::size_t>(term1)] = 1;

    ++stamp;
    for (auto objId : task.objs) {
      for (auto netId : db.netsOf(objId)) {
        if (netStamp[static_cast<std::size_t>(netId)] == stamp) continue;
        netStamp[static_cast<std::size_t>(netId)] = stamp;
        std::vector<std::int32_t> verts;
        double extCoordSum = 0.0;
        int extCount = 0;
        const auto p0 = static_cast<std::size_t>(
            netPinStart[static_cast<std::size_t>(netId)]);
        const auto p1 = static_cast<std::size_t>(
            netPinStart[static_cast<std::size_t>(netId) + 1]);
        for (std::size_t pid = p0; pid < p1; ++pid) {
          const auto obj = pinObj[pid];
          const auto local = lookup[static_cast<std::size_t>(obj)];
          if (local >= 0) {
            if (std::find(verts.begin(), verts.end(), local) == verts.end()) {
              verts.push_back(local);
            }
          } else {
            // External pin: live object center + the view's pin offset
            // (bit-identical to db.pinPos on the AoS pin).
            const Point c =
                db.objects[static_cast<std::size_t>(obj)].center();
            extCoordSum += splitX ? c.x + pinOx[pid] : c.y + pinOy[pid];
            ++extCount;
          }
        }
        if (verts.empty()) continue;
        if (extCount > 0) {
          const double mean = extCoordSum / extCount;
          verts.push_back(mean < cut ? term0 : term1);
        }
        if (verts.size() >= 2) fm.nets.push_back(std::move(verts));
      }
    }

    fm.targetFraction =
        freeCapacity(db, a) /
        std::max(1e-9, freeCapacity(db, a) + freeCapacity(db, b));
    fm.tolerance = kBalanceTolerance;

    const FmResult part = fmPartition(fm, rng.next(), kFmPasses);
    ++res.partitions;

    Task ta{a, {}, task.depth + 1}, tb{b, {}, task.depth + 1};
    for (std::size_t k = 0; k < nLocal; ++k) {
      auto& o = db.objects[static_cast<std::size_t>(task.objs[k])];
      if (part.side[k] == 0) {
        ta.objs.push_back(task.objs[k]);
        o.setCenter(a.center().x, a.center().y);
      } else {
        tb.objs.push_back(task.objs[k]);
        o.setCenter(b.center().x, b.center().y);
      }
    }
    if (!ta.objs.empty()) queue.push_back(std::move(ta));
    if (!tb.objs.empty()) queue.push_back(std::move(tb));
  }

  res.hpwl = hpwl(db);
  rc.log().info("minCutPlace: %d partitions, depth %d, HPWL %.4g",
                res.partitions, res.maxDepth, res.hpwl);
  return res;
}

}  // namespace ep
