#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "density/bingrid.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Stamp exact footprints of a subset into area maps. Flags and areas come
/// from the view's SoA arrays; rects come from the live object positions
/// (metrics run mid-flow, when the view's movable copies may be stale).
void stampObjects(const PlacementDB& db, const BinGrid& grid, bool movable,
                  std::vector<double>& map) {
  const PlacementView& pv = db.view();
  const auto fixedMask = pv.fixedMask();
  const auto area = pv.area();
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if ((fixedMask[i] != 0) == movable) continue;
    grid.stamp(db.objects[i].rect(), area[i], map);
  }
}

BinGrid defaultGrid(const PlacementDB& db, std::size_t nx, std::size_t ny) {
  if (nx == 0 || ny == 0) {
    // Overflow-style metrics use the coarse grid rule; see bingrid.h.
    const std::size_t m =
        BinGrid::chooseOverflowResolution(db.objects.size());
    nx = ny = m;
  }
  return {db.region, nx, ny};
}

}  // namespace

DensityReport densityOverflow(const PlacementDB& db, std::size_t nx,
                              std::size_t ny) {
  const BinGrid grid = defaultGrid(db, nx, ny);
  std::vector<double> mov(grid.numBins(), 0.0), fix(grid.numBins(), 0.0);
  stampObjects(db, grid, true, mov);
  stampObjects(db, grid, false, fix);
  const double binArea = grid.binArea();
  const double total = db.totalMovableArea();
  DensityReport rep;
  double over = 0.0;
  for (std::size_t b = 0; b < mov.size(); ++b) {
    const double capacity =
        db.targetDensity * std::max(0.0, binArea - fix[b]);
    over += std::max(0.0, mov[b] - capacity);
    rep.maxDensity = std::max(rep.maxDensity, (mov[b] + fix[b]) / binArea);
  }
  rep.overflow = total > 0.0 ? over / total : 0.0;
  return rep;
}

double scaledHpwl(const PlacementDB& db) {
  const double w = hpwl(db);
  if (db.targetDensity >= 1.0) return w;
  const BinGrid grid = defaultGrid(db, 0, 0);
  std::vector<double> mov(grid.numBins(), 0.0), fix(grid.numBins(), 0.0);
  stampObjects(db, grid, true, mov);
  stampObjects(db, grid, false, fix);
  const double binArea = grid.binArea();
  double over = 0.0, capacity = 0.0;
  for (std::size_t b = 0; b < mov.size(); ++b) {
    const double cap = db.targetDensity * std::max(0.0, binArea - fix[b]);
    over += std::max(0.0, mov[b] - cap);
    capacity += cap;
  }
  const double tauAvgPercent = capacity > 0.0 ? 100.0 * over / capacity : 0.0;
  return w * (1.0 + 0.01 * tauAvgPercent);
}

double gridOverlapArea(const PlacementDB& db, bool includeFixed,
                       std::size_t nx, std::size_t ny) {
  if (nx == 0 || ny == 0) {
    const std::size_t m =
        std::min<std::size_t>(1024, 2 * BinGrid::chooseResolution(
                                            db.objects.size()));
    nx = ny = m;
  }
  const BinGrid grid(db.region, nx, ny);
  std::vector<double> map(grid.numBins(), 0.0);
  const PlacementView& pv = db.view();
  const auto fixedMask = pv.fixedMask();
  const auto area = pv.area();
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (fixedMask[i] != 0 && !includeFixed) continue;
    grid.stamp(db.objects[i].rect(), area[i], map);
  }
  const double binArea = grid.binArea();
  double over = 0.0;
  for (double a : map) over += std::max(0.0, a - binArea);
  return over;
}

double pairwiseOverlapArea(const PlacementDB& db,
                           std::span<const std::int32_t> indices) {
  std::vector<std::int32_t> order(indices.begin(), indices.end());
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const double la = db.objects[static_cast<std::size_t>(a)].lx;
    const double lb = db.objects[static_cast<std::size_t>(b)].lx;
    return la < lb || (la == lb && a < b);
  });
  double total = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Rect ri = db.objects[static_cast<std::size_t>(order[i])].rect();
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const Rect rj = db.objects[static_cast<std::size_t>(order[j])].rect();
      if (rj.lx >= ri.hx) break;  // sweep cut-off
      total += ri.overlapArea(rj);
    }
  }
  return total;
}

double macroCellCoverArea(const PlacementDB& db) {
  // Sweep std cells against macros: sort macros by lx, for each cell scan
  // candidate macros. Cell counts dominate, so index macros only. Kind
  // flags come from the view's SoA arrays, rects from live positions.
  const auto kinds = db.view().kind();
  std::vector<const Object*> macros;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (kinds[i] == static_cast<std::uint8_t>(ObjKind::kMacro)) {
      macros.push_back(&db.objects[i]);
    }
  }
  std::sort(macros.begin(), macros.end(),
            [](const Object* a, const Object* b) { return a->lx < b->lx; });
  std::vector<double> macroLx(macros.size());
  for (std::size_t i = 0; i < macros.size(); ++i) macroLx[i] = macros[i]->lx;

  double total = 0.0;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (kinds[i] != static_cast<std::uint8_t>(ObjKind::kStdCell)) continue;
    const auto& o = db.objects[i];
    const Rect rc = o.rect();
    // Macros with lx < rc.hx can overlap; iterate those and cut when the
    // macro is entirely to the left for every candidate — macros are few,
    // so a linear scan over the candidates is fine.
    const auto end = std::upper_bound(macroLx.begin(), macroLx.end(), rc.hx) -
                     macroLx.begin();
    for (std::ptrdiff_t m = 0; m < end; ++m) {
      total += rc.overlapArea(macros[static_cast<std::size_t>(m)]->rect());
    }
  }
  return total;
}

LegalityReport checkLegality(const PlacementDB& db, double tol) {
  LegalityReport rep;

  // `describe` builds the text, so only the first issue pays for a string.
  auto note = [&](auto&& describe) {
    if (rep.firstIssue.empty()) rep.firstIssue = describe();
  };

  const PlacementView& pv = db.view();
  const auto fixedMask = pv.fixedMask();
  const auto kinds = pv.kind();

  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    const auto& o = db.objects[i];
    if (fixedMask[i] != 0) continue;
    const Rect r = o.rect();
    if (r.lx < db.region.lx - tol || r.hx > db.region.hx + tol ||
        r.ly < db.region.ly - tol || r.hy > db.region.hy + tol) {
      ++rep.outOfRegion;
      note([&] { return "object " + o.name + " out of region"; });
    }
  }

  if (!db.rows.empty()) {
    for (std::size_t i = 0; i < db.objects.size(); ++i) {
      const auto& o = db.objects[i];
      if (fixedMask[i] != 0 ||
          kinds[i] != static_cast<std::uint8_t>(ObjKind::kStdCell)) {
        continue;
      }
      bool onRow = false;
      for (const auto& row : db.rows) {
        if (std::abs(o.ly - row.ly) <= tol) {
          onRow = true;
          if (o.lx < row.lx - tol || o.lx + o.w > row.hx() + tol) {
            ++rep.outOfRegion;
            note([&] { return "cell " + o.name + " outside row span"; });
          }
          const double site = (o.lx - row.lx) / row.siteWidth;
          if (std::abs(site - std::round(site)) > 1e-4) {
            ++rep.offSite;
            note([&] { return "cell " + o.name + " off site grid"; });
          }
          break;
        }
      }
      if (!onRow) {
        ++rep.offRow;
        note([&] { return "cell " + o.name + " not aligned to any row"; });
      }
    }
  }

  // Pairwise overlap among all objects via x-sweep.
  std::vector<std::int32_t> order(db.objects.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int32_t>(i);
  }
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const double la = db.objects[static_cast<std::size_t>(a)].lx;
    const double lb = db.objects[static_cast<std::size_t>(b)].lx;
    return la < lb || (la == lb && a < b);
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& oi = db.objects[static_cast<std::size_t>(order[i])];
    const Rect ri = oi.rect();
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto& oj = db.objects[static_cast<std::size_t>(order[j])];
      if (oj.lx >= ri.hx - tol) break;
      if (fixedMask[static_cast<std::size_t>(order[i])] != 0 &&
          fixedMask[static_cast<std::size_t>(order[j])] != 0) {
        continue;
      }
      const Rect rj = oj.rect();
      // Shrink by tol so abutting objects do not count as overlapping.
      if (ri.overlapArea(rj) > tol * (ri.width() + rj.width())) {
        ++rep.overlaps;
        note([&] {
          return "objects " + oi.name + " and " + oj.name + " overlap";
        });
      }
    }
  }

  rep.legal = rep.outOfRegion == 0 && rep.offRow == 0 && rep.offSite == 0 &&
              rep.overlaps == 0;
  return rep;
}

}  // namespace ep
