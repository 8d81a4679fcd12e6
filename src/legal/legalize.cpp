#include "legal/legalize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

struct Segment {
  double x0, x1;   // usable span (site aligned)
  double y;        // row bottom
  double cursor;   // next free x
  double siteX0, sitePitch;
  std::vector<std::int32_t> cells;  // placed cells, left to right
};

double snapUp(double x, double origin, double pitch) {
  return origin + std::ceil((x - origin) / pitch - 1e-9) * pitch;
}
double snapNearest(double x, double origin, double pitch) {
  return origin + std::round((x - origin) / pitch) * pitch;
}

/// Abacus-style clumping: minimize sum (x_i - target_i)^2 subject to
/// x_{i+1} >= x_i + w_i and [lo, hi] bounds. Classic cluster merge.
void clump(std::vector<double>& x, const std::vector<double>& target,
           const std::vector<double>& w, double lo, double hi) {
  const std::size_t n = x.size();
  if (n == 0) return;
  struct Cluster {
    double pos;     // optimal position of first cell
    double weight;  // number of cells
    double q;       // sum of (target_i - offset_i)
    double width;   // total width
  };
  std::vector<Cluster> stack;
  for (std::size_t i = 0; i < n; ++i) {
    Cluster c{target[i], 1.0, target[i], w[i]};
    // Merge with predecessors while overlapping.
    while (!stack.empty()) {
      Cluster& p = stack.back();
      double cPos = std::clamp(c.q / c.weight, lo, hi - c.width);
      const double pPos = std::clamp(p.q / p.weight, lo, hi - p.width);
      if (pPos + p.width <= cPos + 1e-12) break;
      // Merge c into p: cells of c sit at offset p.width within p.
      p.q += c.q - c.weight * p.width;
      p.weight += c.weight;
      p.width += c.width;
      c = p;
      stack.pop_back();
    }
    stack.push_back(c);
  }
  std::size_t i = 0;
  for (const auto& c : stack) {
    double pos = std::clamp(c.q / c.weight, lo, hi - c.width);
    const auto count = static_cast<std::size_t>(c.weight + 0.5);
    for (std::size_t k = 0; k < count; ++k) {
      x[i] = pos;
      pos += w[i];
      ++i;
    }
  }
}

/// Shared implementation: Tetris assignment always; the Abacus clumping
/// refinement only when `clumpToTargets` (legalizeCells). The greedy path
/// (greedyLegalizeCells) stops after Tetris — it is the supervisor's
/// fallback and deliberately avoids the clumping code and its
/// "legalize.displace" fault site.
LegalizeResult legalizeImpl(PlacementDB& db, bool clumpToTargets,
                            RuntimeContext& rc) {
  LegalizeResult res;
  res.hpwlBefore = hpwl(db);

  // Obstacles: fixed objects and macros (movable macros are legal & frozen
  // by mLG at this point, but may not have fixed=true yet). Flags from the
  // view SoA arrays; rects from the live object positions.
  const PlacementView& pv = db.view();
  const auto kinds = pv.kind();
  const auto fixedMask = pv.fixedMask();
  std::vector<Rect> obstacles;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (fixedMask[i] != 0 ||
        kinds[i] == static_cast<std::uint8_t>(ObjKind::kMacro)) {
      obstacles.push_back(db.objects[i].rect());
    }
  }

  // Build per-row free segments.
  std::vector<Segment> segments;
  for (const auto& row : db.rows) {
    const double ry0 = row.ly, ry1 = row.ly + row.height;
    std::vector<std::pair<double, double>> blocks;
    for (const auto& obs : obstacles) {
      if (obs.ly < ry1 - 1e-9 && obs.hy > ry0 + 1e-9) {
        blocks.emplace_back(obs.lx, obs.hx);
      }
    }
    std::sort(blocks.begin(), blocks.end());
    double cur = row.lx;
    const double rowEnd = row.hx();
    auto pushSegment = [&](double a, double b) {
      const double x0 = snapUp(a, row.lx, row.siteWidth);
      const double x1 = b;
      if (x1 - x0 >= row.siteWidth - 1e-9) {
        segments.push_back(
            {x0, x1, row.ly, x0, row.lx, row.siteWidth, {}});
      }
    };
    for (const auto& [bl, bh] : blocks) {
      if (bl > cur) pushSegment(cur, std::min(bl, rowEnd));
      cur = std::max(cur, bh);
      if (cur >= rowEnd) break;
    }
    if (cur < rowEnd) pushSegment(cur, rowEnd);
  }
  if (segments.empty()) {
    rc.log().warn("legalizeCells: no usable row segments");
    return res;
  }

  // Movable std cells sorted by x.
  std::vector<std::int32_t> cells;
  for (auto i : db.movable()) {
    if (kinds[static_cast<std::size_t>(i)] ==
        static_cast<std::uint8_t>(ObjKind::kStdCell)) {
      cells.push_back(i);
    }
  }
  std::sort(cells.begin(), cells.end(), [&](std::int32_t a, std::int32_t b) {
    return db.objects[static_cast<std::size_t>(a)].lx <
           db.objects[static_cast<std::size_t>(b)].lx;
  });

  // Remember the global-placement x targets before Tetris overwrites them;
  // clumping pulls cells back toward these.
  std::vector<double> gpX(db.objects.size(), 0.0);
  for (auto ci : cells) {
    gpX[static_cast<std::size_t>(ci)] =
        db.objects[static_cast<std::size_t>(ci)].lx;
  }

  // Tetris assignment.
  std::vector<std::int32_t> unplacedCells;
  double sumDisp = 0.0;
  for (auto ci : cells) {
    auto& o = db.objects[static_cast<std::size_t>(ci)];
    double bestCost = std::numeric_limits<double>::max();
    Segment* best = nullptr;
    double bestPos = 0.0;
    for (auto& seg : segments) {
      if (seg.x1 - seg.cursor < o.w - 1e-9) continue;
      double pos = std::max(seg.cursor, std::min(o.lx, seg.x1 - o.w));
      pos = snapUp(pos, seg.siteX0, seg.sitePitch);
      if (pos + o.w > seg.x1 + 1e-9) continue;
      const double cost = std::abs(pos - o.lx) + std::abs(seg.y - o.ly);
      if (cost < bestCost) {
        bestCost = cost;
        best = &seg;
        bestPos = pos;
      }
    }
    if (best == nullptr) {
      unplacedCells.push_back(ci);
      continue;
    }
    sumDisp += bestCost;
    res.maxDisplacement = std::max(res.maxDisplacement, bestCost);
    best->cells.push_back(ci);
    best->cursor = bestPos + o.w;
    o.lx = bestPos;
    o.ly = best->y;
  }

  // Second chance for cells the cursor heuristic could not host: the greedy
  // pass can leave usable gaps left of each segment cursor (it never places
  // left of the desired position). Fill those gaps first-fit by minimal
  // displacement.
  for (auto ci : unplacedCells) {
    auto& o = db.objects[static_cast<std::size_t>(ci)];
    Segment* best = nullptr;
    double bestPos = 0.0, bestCost = std::numeric_limits<double>::max();
    for (auto& seg : segments) {
      // Gaps between consecutive placed cells (cells are packed in x order).
      double gapStart = seg.x0;
      auto consider = [&](double gapEnd) {
        const double start = snapUp(gapStart, seg.siteX0, seg.sitePitch);
        if (gapEnd - start < o.w - 1e-9) return;
        const double pos =
            std::max(start, std::min(o.lx, gapEnd - o.w));
        const double snapped = snapUp(std::min(pos, gapEnd - o.w) - 1e-9,
                                      seg.siteX0, seg.sitePitch);
        const double fit = (snapped >= start - 1e-9 &&
                            snapped + o.w <= gapEnd + 1e-9)
                               ? snapped
                               : start;
        if (fit + o.w > gapEnd + 1e-9) return;
        const double cost = std::abs(fit - o.lx) + std::abs(seg.y - o.ly);
        if (cost < bestCost) {
          bestCost = cost;
          best = &seg;
          bestPos = fit;
        }
      };
      std::sort(seg.cells.begin(), seg.cells.end(),
                [&](std::int32_t a, std::int32_t b) {
                  return db.objects[static_cast<std::size_t>(a)].lx <
                         db.objects[static_cast<std::size_t>(b)].lx;
                });
      for (auto placed : seg.cells) {
        const auto& p = db.objects[static_cast<std::size_t>(placed)];
        consider(p.lx);
        gapStart = std::max(gapStart, p.lx + p.w);
      }
      consider(seg.x1);
    }
    if (best == nullptr) {
      ++res.unplaced;
      continue;
    }
    sumDisp += bestCost;
    res.maxDisplacement = std::max(res.maxDisplacement, bestCost);
    best->cells.push_back(ci);
    o.lx = bestPos;
    o.ly = best->y;
  }

  // Abacus clumping per segment toward the GP x targets, then site snap.
  for (auto& seg : segments) {
    if (!clumpToTargets) break;
    if (seg.cells.empty()) continue;
    std::sort(seg.cells.begin(), seg.cells.end(),
              [&](std::int32_t a, std::int32_t b) {
                return db.objects[static_cast<std::size_t>(a)].lx <
                       db.objects[static_cast<std::size_t>(b)].lx;
              });
    const std::size_t n = seg.cells.size();
    std::vector<double> x(n), target(n), w(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& o = db.objects[static_cast<std::size_t>(seg.cells[k])];
      target[k] = gpX[static_cast<std::size_t>(seg.cells[k])];
      w[k] = o.w;
    }
    clump(x, target, w, seg.x0, seg.x1);
    // Snap left-to-right, then resolve right-edge overflow right-to-left.
    double prevEnd = seg.x0;
    for (std::size_t k = 0; k < n; ++k) {
      double pos = snapNearest(x[k], seg.siteX0, seg.sitePitch);
      if (pos < prevEnd - 1e-9) pos = snapUp(prevEnd, seg.siteX0, seg.sitePitch);
      x[k] = pos;
      prevEnd = pos + w[k];
    }
    double limit = seg.x1;
    for (std::size_t k = n; k-- > 0;) {
      if (x[k] + w[k] > limit + 1e-9) {
        x[k] = limit - w[k];
        x[k] = seg.siteX0 +
               std::floor((x[k] - seg.siteX0) / seg.sitePitch + 1e-9) *
                   seg.sitePitch;
      }
      limit = x[k];
    }
    for (std::size_t k = 0; k < n; ++k) {
      db.objects[static_cast<std::size_t>(seg.cells[k])].lx = x[k];
    }
  }

  // Fault site "legalize.displace": corrupts one clumped x-coordinate (NaN
  // or a spike flinging the cell out of the region) so the supervisor's
  // post-legalization invariant gate and greedy fallback are testable. Lives
  // in the clumping phase only — the greedy path stays clean.
  if (clumpToTargets) {
    FaultInjector& inj = rc.faults();
    if (inj.active() && !cells.empty()) {
      if (const FaultSpec* f = inj.fire("legalize.displace")) {
        std::vector<double> xs(cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k) {
          xs[k] = db.objects[static_cast<std::size_t>(cells[k])].lx;
        }
        inj.corrupt(xs, *f);
        for (std::size_t k = 0; k < cells.size(); ++k) {
          db.objects[static_cast<std::size_t>(cells[k])].lx = xs[k];
        }
      }
    }
  }

  res.success = res.unplaced == 0;
  res.avgDisplacement =
      cells.empty() ? 0.0 : sumDisp / static_cast<double>(cells.size());
  res.hpwlAfter = hpwl(db);
  rc.log().info("%s: HPWL %.4g -> %.4g, avg disp %.3g, unplaced %d",
                clumpToTargets ? "legalize" : "legalize (greedy)",
                res.hpwlBefore, res.hpwlAfter, res.avgDisplacement,
                res.unplaced);
  return res;
}

}  // namespace

LegalizeResult legalizeCells(PlacementDB& db, RuntimeContext& ctx) {
  return legalizeImpl(db, /*clumpToTargets=*/true, ctx);
}

LegalizeResult greedyLegalizeCells(PlacementDB& db, RuntimeContext& ctx) {
  return legalizeImpl(db, /*clumpToTargets=*/false, ctx);
}

}  // namespace ep
