#include "timing/timing_driven.h"

#include <cmath>

#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "util/context.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Weight gain on fully critical nets.
constexpr double kAlpha = 4.0;

}  // namespace

TimingDrivenResult timingDrivenPlace(PlacementDB& db, RuntimeContext& ctx,
                                     const TimingDrivenConfig& cfg) {
  TimingDrivenResult res;

  // Seed run fixes the clock target.
  runSupervisedFlow(db, {}, ctx, plainPolicy());
  {
    const StaResult seed = staAnalyze(db, ctx);
    res.clockPeriod = cfg.clockFactor * seed.maxDelay;
  }
  const StaResult before = staAnalyze(db, ctx, res.clockPeriod);
  res.wnsBefore = before.wns;
  res.tnsBefore = before.tns;
  res.maxDelayBefore = before.maxDelay;
  res.hpwlBefore = hpwl(db);

  std::vector<double> origWeight(db.nets.size());
  for (std::size_t e = 0; e < db.nets.size(); ++e) {
    origWeight[e] = db.nets[e].weight;
  }
  auto savePositions = [&] {
    std::vector<Point> p(db.objects.size());
    for (std::size_t i = 0; i < db.objects.size(); ++i) {
      p[i] = {db.objects[i].lx, db.objects[i].ly};
    }
    return p;
  };
  auto restorePositions = [&](const std::vector<Point>& p) {
    for (std::size_t i = 0; i < db.objects.size(); ++i) {
      db.objects[i].lx = p[i].x;
      db.objects[i].ly = p[i].y;
    }
  };

  std::vector<Point> best = savePositions();
  double bestWns = before.wns, bestTns = before.tns;

  for (int round = 0; round < cfg.rounds; ++round) {
    const StaResult sta = staAnalyze(db, ctx, res.clockPeriod);
    for (std::size_t e = 0; e < db.nets.size(); ++e) {
      const double crit = sta.criticality(e);
      db.nets[e].weight = origWeight[e] * (1.0 + kAlpha * crit * crit);
    }
    runSupervisedFlow(db, {}, ctx, plainPolicy());
    ++res.rounds;

    const StaResult now = staAnalyze(db, ctx, res.clockPeriod);
    ctx.log().info("timing round %d: wns %.4g -> %.4g, tns %.4g -> %.4g",
                   round, bestWns, now.wns, bestTns, now.tns);
    if (now.wns > bestWns || (now.wns == bestWns && now.tns > bestTns)) {
      bestWns = now.wns;
      bestTns = now.tns;
      best = savePositions();
    }
  }

  for (std::size_t e = 0; e < db.nets.size(); ++e) {
    db.nets[e].weight = origWeight[e];
  }
  restorePositions(best);

  const StaResult after = staAnalyze(db, ctx, res.clockPeriod);
  res.wnsAfter = after.wns;
  res.tnsAfter = after.tns;
  res.maxDelayAfter = after.maxDelay;
  res.hpwlAfter = hpwl(db);
  res.legal = checkLegality(db).legal;
  ctx.log().info(
      "timing-driven: wns %.4g -> %.4g, maxDelay %.4g -> %.4g, HPWL "
      "%.4g -> %.4g",
      res.wnsBefore, res.wnsAfter, res.maxDelayBefore, res.maxDelayAfter,
      res.hpwlBefore, res.hpwlAfter);
  return res;
}

}  // namespace ep
