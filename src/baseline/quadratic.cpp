#include "baseline/quadratic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "eval/metrics.h"
#include "qp/b2b.h"
#include "qp/sparse.h"
#include "util/context.h"
#include "util/log.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Initial pseudo-spring weight.
constexpr double kAnchorWeight0 = 0.01;
constexpr double kAnchorGrowth = 1.2;
/// Fraction of the inverse-CDF displacement applied per iteration
/// (FastPlace-style damped cell shifting; 1.0 = jump to the target).
constexpr double kSpreadDamping = 0.6;
/// Spreading bands along y when moving x.
constexpr std::size_t kBandsX = 16;
constexpr std::size_t kBandsY = 16;
constexpr std::size_t kBinsPerBand = 32;
constexpr int kCgMaxIterations = 200;
constexpr std::uint64_t kSeed = 5;

/// Per-band inverse-CDF remap of one axis. `pos` is the coordinate being
/// spread, `other` selects the band. Returns the spreading targets.
std::vector<double> spreadAxis(const PlacementDB& db,
                               const std::vector<std::int32_t>& movable,
                               const std::vector<double>& pos,
                               const std::vector<double>& other, bool axisX,
                               std::size_t bands, std::size_t bins) {
  const Rect& r = db.region;
  const double lo = axisX ? r.lx : r.ly;
  const double hi = axisX ? r.hx : r.hy;
  const double bandLo = axisX ? r.ly : r.lx;
  const double bandHi = axisX ? r.hy : r.hx;
  const double binW = (hi - lo) / static_cast<double>(bins);
  const double bandW = (bandHi - bandLo) / static_cast<double>(bands);

  // Free capacity per (band, bin): band area minus fixed overlap, scaled by
  // the target density. Fixed rects come from the view's SoA arrays.
  const PlacementView& pv = db.view();
  const auto fixedMask = pv.fixedMask();
  const auto vlx = pv.lx();
  const auto vly = pv.ly();
  const auto vw = pv.w();
  const auto vh = pv.h();
  std::vector<double> cap(bands * bins, 0.0);
  for (std::size_t b = 0; b < bands; ++b) {
    for (std::size_t i = 0; i < bins; ++i) {
      Rect cell;
      if (axisX) {
        cell = {lo + i * binW, bandLo + b * bandW, lo + (i + 1) * binW,
                bandLo + (b + 1) * bandW};
      } else {
        cell = {bandLo + b * bandW, lo + i * binW, bandLo + (b + 1) * bandW,
                lo + (i + 1) * binW};
      }
      double fixedArea = 0.0;
      for (std::size_t k = 0; k < pv.numObjects(); ++k) {
        if (fixedMask[k] == 0) continue;
        const Rect r{vlx[k], vly[k], vlx[k] + vw[k], vly[k] + vh[k]};
        fixedArea += r.overlapArea(cell);
      }
      cap[b * bins + i] =
          db.targetDensity * std::max(0.0, cell.area() - fixedArea);
    }
  }

  // Group movables into bands.
  std::vector<std::vector<std::size_t>> byBand(bands);
  for (std::size_t k = 0; k < movable.size(); ++k) {
    auto b = static_cast<std::size_t>((other[k] - bandLo) / bandW);
    b = std::min(b, bands - 1);
    byBand[b].push_back(k);
  }

  std::vector<double> target = pos;
  for (std::size_t b = 0; b < bands; ++b) {
    auto& cells = byBand[b];
    if (cells.empty()) continue;
    std::sort(cells.begin(), cells.end(),
              [&](std::size_t i, std::size_t j) { return pos[i] < pos[j]; });
    const auto objArea = pv.area();
    double areaTotal = 0.0;
    for (auto k : cells) {
      areaTotal += objArea[static_cast<std::size_t>(movable[k])];
    }
    double capTotal = 0.0;
    for (std::size_t i = 0; i < bins; ++i) capTotal += cap[b * bins + i];
    if (capTotal <= 0.0 || areaTotal <= 0.0) continue;

    // Walk the capacity CDF.
    std::size_t bin = 0;
    double capBefore = 0.0;
    double areaCum = 0.0;
    for (auto k : cells) {
      const double a = objArea[static_cast<std::size_t>(movable[k])];
      const double want = (areaCum + 0.5 * a) / areaTotal * capTotal;
      areaCum += a;
      while (bin + 1 < bins && capBefore + cap[b * bins + bin] < want) {
        capBefore += cap[b * bins + bin];
        ++bin;
      }
      const double inBin = cap[b * bins + bin] > 0.0
                               ? (want - capBefore) / cap[b * bins + bin]
                               : 0.5;
      target[k] = lo + (static_cast<double>(bin) +
                        std::clamp(inBin, 0.0, 1.0)) *
                           binW;
    }
  }
  return target;
}

}  // namespace

QuadraticPlaceResult quadraticPlace(PlacementDB& db, RuntimeContext& rc,
                                    const QuadraticPlaceConfig& cfg) {
  QuadraticPlaceResult res;
  const auto& movable = db.movable();
  const auto n = static_cast<std::int32_t>(movable.size());
  if (n == 0) return res;

  // Stage boundary: refresh view positions so spreadAxis stamps current
  // fixed rects, and reuse the view's canonical movable remap.
  db.view().syncPositionsFromDb(db);
  const std::span<const std::int32_t> objToVar = db.view().objToMovable();
  const std::span<const double> objArea = db.view().area();

  // Seed like mIP: center with jitter.
  Rng rng(kSeed);
  const Point c = db.region.center();
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] =
        c.x + rng.uniform(-1e-3, 1e-3) * db.region.width();
    y[static_cast<std::size_t>(v)] =
        c.y + rng.uniform(-1e-3, 1e-3) * db.region.height();
  }

  std::vector<double> tx, ty;  // anchors (empty in the first iteration)
  double anchorW = kAnchorWeight0;

  auto writeBack = [&] {
    for (std::int32_t v = 0; v < n; ++v) {
      auto& o = db.objects[static_cast<std::size_t>(
          movable[static_cast<std::size_t>(v)])];
      const double cx = std::clamp(x[static_cast<std::size_t>(v)],
                                   db.region.lx + o.w * 0.5,
                                   std::max(db.region.lx + o.w * 0.5,
                                            db.region.hx - o.w * 0.5));
      const double cy = std::clamp(y[static_cast<std::size_t>(v)],
                                   db.region.ly + o.h * 0.5,
                                   std::max(db.region.ly + o.h * 0.5,
                                            db.region.hy - o.h * 0.5));
      o.setCenter(cx, cy);
    }
  };

  for (int iter = 0; iter < cfg.maxIterations; ++iter) {
    res.iterations = iter + 1;
    for (Axis axis : {Axis::kX, Axis::kY}) {
      auto& pos = axis == Axis::kX ? x : y;
      auto& anchors = axis == Axis::kX ? tx : ty;
      CooBuilder builder(n);
      std::vector<double> rhs(static_cast<std::size_t>(n), 0.0);
      buildB2B(db, axis, objToVar, pos, builder, rhs);
      if (!anchors.empty()) {
        for (std::int32_t v = 0; v < n; ++v) {
          // Anchor strength scales with cell area so macros spread too.
          const double w =
              anchorW *
              std::max(1.0, objArea[static_cast<std::size_t>(
                                movable[static_cast<std::size_t>(v)])]);
          builder.addDiag(v, w);
          rhs[static_cast<std::size_t>(v)] +=
              w * anchors[static_cast<std::size_t>(v)];
        }
      } else {
        // Weak center anchor keeps the first solve non-singular even when a
        // connected component lacks fixed pins.
        for (std::int32_t v = 0; v < n; ++v) {
          builder.addDiag(v, 1e-6);
          rhs[static_cast<std::size_t>(v)] +=
              1e-6 * (axis == Axis::kX ? c.x : c.y);
        }
      }
      const Csr A = std::move(builder).build();
      cgSolve(A, rhs, pos, kCgMaxIterations, 1e-6);
    }
    writeBack();

    const auto rep = densityOverflow(db);
    res.finalOverflow = rep.overflow;
    if (rep.overflow <= cfg.targetOverflow) break;

    tx = spreadAxis(db, movable, x, y, true, kBandsX, kBinsPerBand);
    ty = spreadAxis(db, movable, y, x, false, kBandsY, kBinsPerBand);
    for (std::size_t k = 0; k < tx.size(); ++k) {
      tx[k] = x[k] + kSpreadDamping * (tx[k] - x[k]);
      ty[k] = y[k] + kSpreadDamping * (ty[k] - y[k]);
    }
    anchorW *= kAnchorGrowth;
  }

  writeBack();
  res.hpwl = hpwl(db);
  rc.log().info("quadraticPlace: %d iters, overflow %.3f, HPWL %.4g",
                res.iterations, res.finalOverflow, res.hpwl);
  return res;
}

}  // namespace ep
