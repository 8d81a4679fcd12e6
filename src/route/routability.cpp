#include "route/routability.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "eplace/checkpoint.h"
#include "eplace/global_placer.h"
#include "eval/metrics.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "util/context.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

constexpr int kMaxRounds = 2;
/// Bins with demand above `kHotspotFactor * mean` are hotspots.
constexpr double kHotspotFactor = 1.5;
/// Cell area inflation per unit of relative excess demand (capped 2x).
constexpr double kInflation = 0.5;
/// Stop when the hotspot score improves less than this fraction.
constexpr double kMinImprovement = 0.02;

}  // namespace

RoutabilityResult routabilityDrivenRefine(PlacementDB& db,
                                          RuntimeContext& ctx) {
  RoutabilityResult res;
  res.hpwlBefore = hpwl(db);
  {
    const CongestionMap m0 = estimateRudy(db);
    res.hotspotBefore = m0.hotspot;
    res.peakBefore = m0.peak;
  }

  // True widths of the movable standard cells (restored every round).
  std::vector<std::pair<std::int32_t, double>> trueW;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (o.kind == ObjKind::kStdCell) trueW.emplace_back(i, o.w);
  }
  if (trueW.empty()) {
    res.hotspotAfter = res.hotspotBefore;
    res.peakAfter = res.peakBefore;
    res.hpwlAfter = res.hpwlBefore;
    res.legal = checkLegality(db).legal;
    return res;
  }

  // The layout with the lowest hotspot score seen so far: a round that
  // raises the score is undone before returning.
  double bestScore = res.hotspotBefore;
  std::vector<double> best = capturePositions(db);
  double prevScore = res.hotspotBefore;
  for (int round = 0; round < kMaxRounds; ++round) {
    const CongestionMap rudy = estimateRudy(db);
    if (round > 0) {
      if (rudy.hotspot < bestScore) {
        bestScore = rudy.hotspot;
        best = capturePositions(db);
      }
      const double improvement = (prevScore - rudy.hotspot) / prevScore;
      if (improvement < kMinImprovement) break;
      prevScore = rudy.hotspot;
    }

    // Inflate hotspot cells (width only: height is the row pitch).
    const double threshold = kHotspotFactor * rudy.mean;
    std::size_t inflated = 0;
    for (const auto& [idx, w] : trueW) {
      auto& o = db.objects[static_cast<std::size_t>(idx)];
      const Point c = o.center();
      const double demand = rudy.at(c.x, c.y);
      double factor = 1.0;
      if (demand > threshold && rudy.mean > 0.0) {
        factor = std::min(
            2.0, 1.0 + kInflation * (demand / rudy.mean - kHotspotFactor));
        ++inflated;
      }
      o.w = w * factor;
      o.setCenter(c.x, c.y);
    }
    ctx.log().info("routability round %d: hotspot %.4g, %zu cells inflated",
                   round, rudy.hotspot, inflated);
    if (inflated == 0) {
      // Restore and stop: nothing to do.
      for (const auto& [idx, w] : trueW) {
        auto& o = db.objects[static_cast<std::size_t>(idx)];
        const Point c = o.center();
        o.w = w;
        o.setCenter(c.x, c.y);
      }
      break;
    }

    // Re-place with the inflated footprints.
    GlobalPlacer gp(db, db.movable(), GpConfig{}, ctx);
    gp.makeFillersFromDb();
    gp.run();

    // Restore true sizes around the new centers, then legalize.
    for (const auto& [idx, w] : trueW) {
      auto& o = db.objects[static_cast<std::size_t>(idx)];
      const Point c = o.center();
      o.w = w;
      o.setCenter(c.x, c.y);
    }
    legalizeCells(db, ctx);
    detailPlace(db, ctx);
    ++res.rounds;
  }

  CongestionMap m1 = estimateRudy(db);
  if (m1.hotspot > bestScore) {
    restorePositions(db, best);
    m1 = estimateRudy(db);
  }
  res.hotspotAfter = m1.hotspot;
  res.peakAfter = m1.peak;
  res.hpwlAfter = hpwl(db);
  res.legal = checkLegality(db).legal;
  ctx.log().info(
      "routability: hotspot %.4g -> %.4g, HPWL %.4g -> %.4g (%d rounds)",
      res.hotspotBefore, res.hotspotAfter, res.hpwlBefore, res.hpwlAfter,
      res.rounds);
  return res;
}

}  // namespace ep
