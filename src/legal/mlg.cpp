#include "legal/mlg.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "density/bingrid.h"
#include "util/context.h"
#include "util/log.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Per-outer-iteration escalation (Sec. VI-A).
constexpr double kKappa = 1.5;
/// SA temperature steps per outer iteration.
constexpr int kInnerIterations = 40;
/// Accepted relative cost increase at k=0 …
constexpr double kDfMaxStart = 0.03;
/// … and at k=kmax.
constexpr double kDfMaxEnd = 1e-4;
/// r_{j,0} = Rx/sqrt(m) * kRadiusFactor * kappa^j.
constexpr double kRadiusFactor = 0.05;

/// Integrate a stamped-area map over a rectangle, assuming the stamped area
/// is uniformly spread within each bin (standard coverage approximation).
double integrateMap(const BinGrid& grid, std::span<const double> map,
                    const Rect& r) {
  const Rect c = r.intersect(grid.region());
  if (c.empty()) return 0.0;
  const double dx = grid.dx(), dy = grid.dy();
  const std::size_t x0 = grid.binX(c.lx), x1 = grid.binX(c.hx - 1e-12 * dx);
  const std::size_t y0 = grid.binY(c.ly), y1 = grid.binY(c.hy - 1e-12 * dy);
  const double invBinArea = 1.0 / grid.binArea();
  double total = 0.0;
  for (std::size_t iy = y0; iy <= y1; ++iy) {
    const double by0 = grid.region().ly + static_cast<double>(iy) * dy;
    const double oy = intervalOverlap(c.ly, c.hy, by0, by0 + dy);
    for (std::size_t ix = x0; ix <= x1; ++ix) {
      const double bx0 = grid.region().lx + static_cast<double>(ix) * dx;
      const double ox = intervalOverlap(c.lx, c.hx, bx0, bx0 + dx);
      total += map[iy * grid.nx() + ix] * (ox * oy * invBinArea);
    }
  }
  return total;
}

struct Annealer {
  PlacementDB& db;
  const MlgConfig& cfg;
  Rng rng;
  std::vector<std::int32_t> macros;       // movable macro object ids
  std::vector<Rect> obstacles;            // fixed objects
  BinGrid cellGrid;
  std::vector<double> cellArea;           // stamped std-cell area
  double rowY0 = 0.0, rowPitch = 0.0, siteX0 = 0.0, sitePitch = 0.0;
  bool snap = false;

  double wCur = 0.0, dCur = 0.0, omCur = 0.0;
  double muD = 1.0, muO = 1.0;
  bool reoriented = false;  // any accepted rotate/flip (view needs a rebuild)

  explicit Annealer(PlacementDB& dbIn, const MlgConfig& cfgIn)
      : db(dbIn),
        cfg(cfgIn),
        rng(cfgIn.seed),
        cellGrid(dbIn.region, 256, 256) {
    for (std::size_t i = 0; i < db.objects.size(); ++i) {
      const auto& o = db.objects[i];
      if (o.fixed) {
        obstacles.push_back(o.rect());
      } else if (o.kind == ObjKind::kMacro) {
        macros.push_back(static_cast<std::int32_t>(i));
      }
    }
    cellArea.assign(cellGrid.numBins(), 0.0);
    for (const auto& o : db.objects) {
      if (!o.fixed && o.kind == ObjKind::kStdCell) {
        cellGrid.stamp(o.rect(), o.area(), cellArea);
      }
    }
    if (!db.rows.empty()) {
      snap = true;
      rowY0 = db.rows.front().ly;
      rowPitch = db.rows.front().height;
      siteX0 = db.rows.front().lx;
      sitePitch = db.rows.front().siteWidth;
      for (const auto& r : db.rows) {
        rowY0 = std::min(rowY0, r.ly);
        siteX0 = std::min(siteX0, r.lx);
      }
    }
  }

  [[nodiscard]] double coverage(const Rect& r) const {
    return integrateMap(cellGrid, cellArea, r);
  }

  /// Overlap of macro `mi`'s rect `r` with all other macros and obstacles.
  [[nodiscard]] double overlapOf(std::size_t mi, const Rect& r) const {
    double total = 0.0;
    for (std::size_t j = 0; j < macros.size(); ++j) {
      if (j == mi) continue;
      total += r.overlapArea(
          db.objects[static_cast<std::size_t>(macros[j])].rect());
    }
    for (const auto& obs : obstacles) total += r.overlapArea(obs);
    return total;
  }

  [[nodiscard]] double wirelengthOf(std::int32_t obj) const {
    double w = 0.0;
    for (auto n : db.netsOf(obj)) {
      const auto& net = db.nets[static_cast<std::size_t>(n)];
      w += net.weight * netHpwl(db, net);
    }
    return w;
  }

  void computeTotals() {
    wCur = hpwl(db);
    dCur = 0.0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      dCur += coverage(db.objects[static_cast<std::size_t>(macros[i])].rect());
    }
    omCur = 0.0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      // Each macro-macro pair counted twice here; halve below. Obstacle
      // overlaps counted once per macro.
      const Rect r = db.objects[static_cast<std::size_t>(macros[i])].rect();
      for (std::size_t j = i + 1; j < macros.size(); ++j) {
        omCur += r.overlapArea(
            db.objects[static_cast<std::size_t>(macros[j])].rect());
      }
      for (const auto& obs : obstacles) omCur += r.overlapArea(obs);
    }
  }

  /// Snap a lower-left candidate onto the row/site grid, inside the region.
  [[nodiscard]] Point snapped(double lx, double ly, double w, double h) const {
    Point p = clampLowerLeft(lx, ly, w, h, db.region);
    if (!snap) return p;
    const double sx = std::round((p.x - siteX0) / sitePitch);
    const double sy = std::round((p.y - rowY0) / rowPitch);
    p.x = siteX0 + sx * sitePitch;
    p.y = rowY0 + sy * rowPitch;
    return clampLowerLeft(p.x, p.y, w, h, db.region);
  }

  /// Rotate a macro 90 degrees about its center: dims swap and every pin
  /// offset maps (ox, oy) -> (-oy, ox). `backward` applies the inverse.
  void rotate(std::int32_t obj, bool backward) {
    auto& o = db.objects[static_cast<std::size_t>(obj)];
    const Point c = o.center();
    std::swap(o.w, o.h);
    o.setCenter(c.x, c.y);
    for (auto n : db.netsOf(obj)) {
      for (auto& pin : db.nets[static_cast<std::size_t>(n)].pins) {
        if (pin.obj != obj) continue;
        const double ox = pin.ox, oy = pin.oy;
        if (backward) {
          pin.ox = oy;
          pin.oy = -ox;
        } else {
          pin.ox = -oy;
          pin.oy = ox;
        }
      }
    }
  }

  /// Mirror a macro about its vertical center line: pin offsets negate x.
  void flip(std::int32_t obj) {
    for (auto n : db.netsOf(obj)) {
      for (auto& pin : db.nets[static_cast<std::size_t>(n)].pins) {
        if (pin.obj == obj) pin.ox = -pin.ox;
      }
    }
  }

  enum class MoveKind { kShift, kRotate, kFlip };

  /// One proposed move of a random macro at relative temperature t and
  /// radius (rx, ry). Returns true when accepted.
  bool tryMove(double t, double rx, double ry) {
    const std::size_t mi = static_cast<std::size_t>(rng.below(macros.size()));
    auto& o = db.objects[static_cast<std::size_t>(macros[mi])];
    const double oldLx = o.lx, oldLy = o.ly;
    const Rect oldRect = o.rect();

    MoveKind kind = MoveKind::kShift;
    if ((cfg.allowRotation || cfg.allowFlipping) &&
        rng.chance(cfg.reorientProb)) {
      if (cfg.allowRotation && cfg.allowFlipping) {
        kind = rng.chance(0.5) ? MoveKind::kRotate : MoveKind::kFlip;
      } else {
        kind = cfg.allowRotation ? MoveKind::kRotate : MoveKind::kFlip;
      }
    }

    const double wOld = wirelengthOf(macros[mi]);
    const double dOld = coverage(oldRect);
    const double omOld = overlapOf(mi, oldRect);

    switch (kind) {
      case MoveKind::kShift: {
        const Point cand = snapped(oldLx + rng.uniform(-rx, rx),
                                   oldLy + rng.uniform(-ry, ry), o.w, o.h);
        if (cand.x == oldLx && cand.y == oldLy) return false;
        o.lx = cand.x;
        o.ly = cand.y;
        break;
      }
      case MoveKind::kRotate: {
        rotate(macros[mi], false);
        const Point cand = snapped(o.lx, o.ly, o.w, o.h);
        o.lx = cand.x;
        o.ly = cand.y;
        break;
      }
      case MoveKind::kFlip:
        flip(macros[mi]);
        break;
    }
    const Rect newRect = o.rect();

    const double wNew = wirelengthOf(macros[mi]);
    const double dNew = coverage(newRect);
    const double omNew = overlapOf(mi, newRect);

    const double dW = wNew - wOld;
    const double dD = dNew - dOld;
    const double dOm = omNew - omOld;
    const double df = dW + muD * dD + muO * dOm;
    const double fCur = wCur + muD * dCur + muO * omCur;
    const double rel = df / std::max(fCur, 1e-12);

    bool accept = rel <= 0.0;
    if (!accept && t > 0.0) accept = rng.uniform() < std::exp(-rel / t);
    if (accept) {
      wCur += dW;
      dCur += dD;
      omCur += dOm;
      // An accepted rotation/flip permanently edits dims / pin offsets,
      // leaving the PlacementView stale; the caller re-finalizes once at
      // the end (rejected moves revert below and need nothing).
      if (kind != MoveKind::kShift) reoriented = true;
      return true;
    }
    switch (kind) {
      case MoveKind::kShift:
        o.lx = oldLx;
        o.ly = oldLy;
        break;
      case MoveKind::kRotate:
        rotate(macros[mi], true);
        o.lx = oldLx;
        o.ly = oldLy;
        break;
      case MoveKind::kFlip:
        flip(macros[mi]);
        break;
    }
    return false;
  }
};

}  // namespace

MlgResult legalizeMacros(PlacementDB& db, RuntimeContext& rc,
                         const MlgConfig& cfg) {
  MlgResult res;
  Annealer sa(db, cfg);
  if (sa.macros.empty()) {
    res.legal = true;
    return res;
  }

  // Snap macros to the grid up front so the initial state is on-lattice.
  for (auto m : sa.macros) {
    auto& o = db.objects[static_cast<std::size_t>(m)];
    const Point p = sa.snapped(o.lx, o.ly, o.w, o.h);
    o.lx = p.x;
    o.ly = p.y;
  }

  sa.computeTotals();
  res.hpwlBefore = sa.wCur;
  res.coverBefore = sa.dCur;
  res.overlapBefore = sa.omCur;

  // Static objective weight mu_D = W/D; constraint weight mu_O starts at a
  // tenth of the wirelength per unit overlap and escalates by kappa.
  sa.muD = sa.dCur > 0.0 ? sa.wCur / sa.dCur : 1.0;
  sa.muO = 0.1 * sa.wCur / std::max(sa.omCur, 1e-9);

  const double m = static_cast<double>(sa.macros.size());
  // One attempt per macro per temperature step.
  const int movesPerStep = static_cast<int>(sa.macros.size());

  const double kLn2 = std::log(2.0);
  int j = 0;
  for (; j < cfg.maxOuterIterations; ++j) {
    if (sa.omCur <= 1e-12) break;
    const double scale = std::pow(kKappa, j);
    const double rx0 =
        db.region.width() / std::sqrt(m) * kRadiusFactor * scale;
    const double ry0 =
        db.region.height() / std::sqrt(m) * kRadiusFactor * scale;
    for (int k = 0; k < kInnerIterations; ++k) {
      const double frac = static_cast<double>(k) /
                          static_cast<double>(std::max(1, kInnerIterations - 1));
      const double dfMax =
          (kDfMaxStart + (kDfMaxEnd - kDfMaxStart) * frac) * scale;
      const double t = dfMax / kLn2;
      // Radius anneals with the same linear profile down to 10%.
      const double rx = rx0 * (1.0 - 0.9 * frac);
      const double ry = ry0 * (1.0 - 0.9 * frac);
      for (int mv = 0; mv < movesPerStep; ++mv) {
        ++res.attempted;
        if (sa.tryMove(t, rx, ry)) ++res.accepted;
      }
    }
    sa.muO *= kKappa;
    // Drift control: recompute totals so incremental error cannot build up.
    sa.computeTotals();
  }

  sa.computeTotals();
  res.hpwlAfter = sa.wCur;
  res.coverAfter = sa.dCur;
  res.overlapAfter = sa.omCur;
  res.outerIterations = j;
  res.legal = sa.omCur <= 1e-9;
  rc.log().info(
      "mLG: W %.4g -> %.4g, D %.4g -> %.4g, Om %.4g -> %.4g (%d outer)",
      res.hpwlBefore, res.hpwlAfter, res.coverBefore, res.coverAfter,
      res.overlapBefore, res.overlapAfter, j);
  // Accepted rotations/flips edited macro dims and pin offsets after
  // finalize(); rebuild the view so downstream consumers see fresh topology.
  if (sa.reoriented) db.finalize();
  return res;
}

}  // namespace ep
