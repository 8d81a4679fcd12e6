#include "eplace/global_placer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "density/electro.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/timer.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Iterations every GP run takes before the overflow target may stop it.
constexpr int kMinIterations = 20;
/// Lower bound of the per-iteration lambda multiplier mu.
constexpr double kLambdaMultMin = 0.95;
/// HPWL delta, as a fraction of the stage-start HPWL, that maps to mu = 1.
constexpr double kRefHpwlDeltaFrac = 1e-2;
/// Steplength multiplier applied on a health rollback (cool restart).
constexpr double kAlphaResetScale = 0.1;

/// Grid resolution per config / auto rule.
std::size_t gridDim(std::size_t cfgDim, std::size_t numObjects) {
  return cfgDim != 0 ? cfgDim : BinGrid::chooseResolution(numObjects);
}

/// Memory-budget charge for the bin grid and its spectral solver,
/// constructed BEFORE ElectroDensity so a breach throws (surfacing as
/// kResourceExhausted at the stage boundary, where the supervisor retries
/// with a coarser grid) without the grid ever allocating. ~8 double planes
/// at grid resolution: density/potential/field maps plus DCT workspaces.
class GridBudgetCharge {
 public:
  GridBudgetCharge(MemoryBudget& mb, std::size_t nx, std::size_t ny)
      : mb_(mb), bytes_(nx * ny * sizeof(double) * 8) {
    mb_.chargeOrThrow(bytes_);
  }
  ~GridBudgetCharge() { mb_.release(bytes_); }
  GridBudgetCharge(const GridBudgetCharge&) = delete;
  GridBudgetCharge& operator=(const GridBudgetCharge&) = delete;

 private:
  MemoryBudget& mb_;
  std::size_t bytes_;
};

}  // namespace

// Internal arrays shared by the main run and the filler-only run. All
// per-var buffers are borrowed from the view's ScratchArena ("gp." keys):
// the mGP engine warms the capacities and the cGP / filler-only engines
// built afterwards reuse those allocations instead of rebuilding them.
struct GlobalPlacer::Engine {
  RuntimeContext& rc;
  PlacementDB& db;
  const GpConfig& cfg;
  FillerSet& fillers;

  std::size_t nCells = 0;    // optimized movable objects
  std::size_t nFillers = 0;
  std::size_t nVars = 0;     // nCells + nFillers

  std::span<double> w, h, q;               // per-var dims and charge
  std::span<const std::int32_t> objToVar;  // db object -> var (< nCells)
  std::span<double> wlPrecond;             // |E_i| per var (0 for fillers)
  std::span<double> loX, hiX, loY, hiY;    // projection box per var

  GridBudgetCharge gridCharge;  // before density: charge precedes allocation
  ElectroDensity density;
  WlEvaluator wlEval;

  // All hot loops below run on the context's pool; every kernel is
  // deterministic (bit-identical results for any thread count — see
  // docs/PERFORMANCE.md).
  ThreadPool* pool = nullptr;

  // Scratch gradient buffers.
  std::span<double> gxW, gyW, gxD, gyD;

  double gammaX = 1.0, gammaY = 1.0;
  double lambda = 0.0;
  double densitySeconds = 0.0;     // Fig. 7 split, summed over evalGrad
  double wirelengthSeconds = 0.0;

  Engine(RuntimeContext& rcIn, PlacementDB& dbIn,
         const std::vector<std::int32_t>& movables, const GpConfig& cfgIn,
         FillerSet& fillersIn)
      : rc(rcIn),
        db(dbIn),
        cfg(cfgIn),
        fillers(fillersIn),
        gridCharge(rcIn.memory(),
                   gridDim(cfgIn.gridNx, movables.size() + fillersIn.size()),
                   gridDim(cfgIn.gridNy, movables.size() + fillersIn.size())),
        density(dbIn.region,
                gridDim(cfgIn.gridNx, movables.size() + fillersIn.size()),
                gridDim(cfgIn.gridNy, movables.size() + fillersIn.size()),
                dbIn.targetDensity, &dbIn.view().arena(), &rcIn.faults()),
        pool(&rcIn.pool()) {
    PlacementView& pv = db.view();
    assert(pv.built());
    // Stage boundary: whatever moved objects since the last finalize
    // (earlier stages, supervisor restores, jitter retries) is synced into
    // the view so its fixed-object geometry is fresh for the kernels.
    pv.syncPositionsFromDb(db);

    nCells = movables.size();
    nFillers = fillers.size();
    nVars = nCells + nFillers;
    ScratchArena& arena = pv.arena();
    w = arena.doubles("gp.w", nVars);
    h = arena.doubles("gp.h", nVars);
    q = arena.doubles("gp.q", nVars);
    wlPrecond = arena.doubles("gp.wlPrecond", nVars);
    std::fill(wlPrecond.begin(), wlPrecond.end(), 0.0);
    loX = arena.doubles("gp.loX", nVars);
    hiX = arena.doubles("gp.hiX", nVars);
    loY = arena.doubles("gp.loY", nVars);
    hiY = arena.doubles("gp.hiY", nVars);

    // The obj -> var map is the view's movable remap whenever this run
    // optimizes exactly the canonical movable set (the common case); only
    // a subset run (e.g. filler-only, nCells == 0) builds its own.
    const auto vMov = pv.movable();
    const bool canonical =
        movables.size() == vMov.size() &&
        std::equal(movables.begin(), movables.end(), vMov.begin());
    if (canonical) {
      objToVar = pv.objToMovable();
    } else {
      auto o2v = arena.ints("gp.objToVar", db.objects.size());
      std::fill(o2v.begin(), o2v.end(), -1);
      for (std::size_t v = 0; v < nCells; ++v) {
        o2v[static_cast<std::size_t>(movables[v])] =
            static_cast<std::int32_t>(v);
      }
      objToVar = o2v;
    }
    const auto ow = pv.w();
    const auto oh = pv.h();
    const auto oarea = pv.area();
    for (std::size_t v = 0; v < nCells; ++v) {
      const auto obj = static_cast<std::size_t>(movables[v]);
      w[v] = ow[obj];
      h[v] = oh[obj];
      q[v] = oarea[obj];
      wlPrecond[v] = static_cast<double>(pv.degreeOf(movables[v]));
    }
    for (std::size_t k = 0; k < nFillers; ++k) {
      const std::size_t v = nCells + k;
      w[v] = fillers.w;
      h[v] = fillers.h;
      q[v] = fillers.w * fillers.h;
    }
    const Rect& r = db.region;
    for (std::size_t v = 0; v < nVars; ++v) {
      loX[v] = r.lx + w[v] * 0.5;
      hiX[v] = std::max(loX[v], r.hx - w[v] * 0.5);
      loY[v] = r.ly + h[v] * 0.5;
      hiY[v] = std::max(loY[v], r.hy - h[v] * 0.5);
    }
    gxW = arena.doubles("gp.gxW", nVars);
    gyW = arena.doubles("gp.gyW", nVars);
    gxD = arena.doubles("gp.gxD", nVars);
    gyD = arena.doubles("gp.gyD", nVars);
    density.stampFixed(db);
    wlEval = WlEvaluator(db, objToVar, nVars);
  }

  [[nodiscard]] ChargeView allCharges(std::span<const double> x,
                                      std::span<const double> y) const {
    return {x.subspan(0, nVars), y.subspan(0, nVars), w, h};
  }
  [[nodiscard]] ChargeView cellCharges(std::span<const double> x,
                                       std::span<const double> y) const {
    return {x.subspan(0, nCells), y.subspan(0, nCells),
            std::span<const double>(w).subspan(0, nCells),
            std::span<const double>(h).subspan(0, nCells)};
  }

  /// Preconditioned gradient; `v` is [x..., y...]. The objective
  /// W + lambda N is never formed: the optimizer is value-free, and
  /// leaving N(v) unread spares the solver its psi synthesis.
  void evalGrad(std::span<const double> v, std::span<double> grad) {
    const auto x = v.subspan(0, nVars);
    const auto y = v.subspan(nVars, nVars);
    const Timer td;
    density.update(allCharges(x, y), pool);
    density.gradient(allCharges(x, y), gxD, gyD, pool);
    densitySeconds += td.seconds();
    const Timer tw;
    const VarView view{&db, objToVar, x, y};
    wlEval.waGrad(view, gammaX, gammaY, gxW, gyW, pool);
    wirelengthSeconds += tw.seconds();
    auto assemble = [&](std::size_t, std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double pre = cfg.enablePreconditioner
                               ? std::max(1.0, wlPrecond[i] + lambda * q[i])
                               : 1.0;
        grad[i] = (gxW[i] + lambda * gxD[i]) / pre;
        grad[nVars + i] = (gyW[i] + lambda * gyD[i]) / pre;
      }
    };
    pool->parallelFor(nVars, assemble);
    // Fault site "nesterov.grad": corrupts the assembled gradient so the
    // health monitor's rollback-and-recover path can be exercised.
    FaultInjector& inj = rc.faults();
    if (inj.active()) {
      if (const FaultSpec* f = inj.fire("nesterov.grad")) {
        inj.corrupt(grad, *f);
      }
    }
  }

  void project(std::span<double> v) const {
    pool->parallelFor(nVars, [&](std::size_t, std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        v[i] = std::clamp(v[i], loX[i], hiX[i]);
        v[nVars + i] = std::clamp(v[nVars + i], loY[i], hiY[i]);
      }
    });
  }

  /// The optimizer of both run() and runFillerOnly(): GpConfig's ablation
  /// switches, and a bootstrap move of a tenth of a bin width.
  NesterovOptimizer makeOptimizer() {
    NesterovConfig ncfg;
    ncfg.enableBacktracking = cfg.enableBacktracking;
    ncfg.enableMomentum = cfg.enableMomentum;
    ncfg.bootstrapMove = 0.1 * density.grid().dx();
    return NesterovOptimizer(
        2 * nVars,
        [this](std::span<const double> v, std::span<double> g) {
          evalGrad(v, g);
        },
        ncfg, [this](std::span<double> v) { project(v); }, pool);
  }

  /// Initial lambda: ratio of L1 gradient norms (wirelength over density)
  /// at the start point, per FFTPL/ePlace.
  double initialLambda(std::span<const double> v) {
    const auto x = v.subspan(0, nVars);
    const auto y = v.subspan(nVars, nVars);
    density.update(allCharges(x, y), pool);
    density.gradient(allCharges(x, y), gxD, gyD, pool);
    const VarView view{&db, objToVar, x, y};
    wlEval.waGrad(view, gammaX, gammaY, gxW, gyW, pool);
    const double wlNorm = norm1(gxW) + norm1(gyW);
    const double dNorm = norm1(gxD) + norm1(gyD);
    return dNorm > 0.0 ? wlNorm / dNorm : 1.0;
  }

  /// Exact HPWL at the given variable values.
  double exactHpwl(std::span<const double> v) {
    const VarView view{&db, objToVar, v.subspan(0, nVars),
                       v.subspan(nVars, nVars)};
    return wlEval.hpwl(view, pool);
  }

  double overflow(std::span<const double> v) const {
    return density.overflow(
        cellCharges(v.subspan(0, nVars), v.subspan(nVars, nVars)), pool);
  }

  void updateGamma(double tau) {
    gammaX = waGammaSchedule(density.grid().dx(), tau);
    gammaY = waGammaSchedule(density.grid().dy(), tau);
  }

  /// Collect the start vector from the view (cells) and the filler set
  /// into the arena (stage-entry reuse; valid until the next run starts).
  [[nodiscard]] std::span<const double> startVector(
      const std::vector<std::int32_t>& movables) const {
    const PlacementView& pv = db.view();
    auto v = pv.arena().doubles("gp.v0", 2 * nVars);
    const auto lx = pv.lx(), ly = pv.ly(), ow = pv.w(), oh = pv.h();
    for (std::size_t i = 0; i < nCells; ++i) {
      const auto obj = static_cast<std::size_t>(movables[i]);
      v[i] = lx[obj] + ow[obj] * 0.5;
      v[nVars + i] = ly[obj] + oh[obj] * 0.5;
    }
    for (std::size_t k = 0; k < nFillers; ++k) {
      v[nCells + k] = fillers.cx[k];
      v[nVars + nCells + k] = fillers.cy[k];
    }
    return v;
  }

  void writeBack(std::span<const double> v,
                 const std::vector<std::int32_t>& movables) {
    for (std::size_t i = 0; i < nCells; ++i) {
      auto& o = db.objects[static_cast<std::size_t>(movables[i])];
      o.setCenter(v[i], v[nVars + i]);
    }
    for (std::size_t k = 0; k < nFillers; ++k) {
      fillers.cx[k] = v[nCells + k];
      fillers.cy[k] = v[nVars + nCells + k];
    }
  }
};

GlobalPlacer::GlobalPlacer(PlacementDB& db,
                           std::vector<std::int32_t> movables, GpConfig cfg,
                           RuntimeContext& ctx)
    : ctx_(ctx),
      db_(db),
      movables_(std::move(movables)),
      cfg_(cfg) {}

void GlobalPlacer::makeFillersFromDb() {
  fillers_ = makeFillers(db_, cfg_.fillerSeed, ctx_);
}

void GlobalPlacer::setFillers(FillerSet fillers) {
  fillers_ = std::move(fillers);
}

void GlobalPlacer::runFillerOnly(int iterations) {
  if (fillers_.size() == 0 || iterations <= 0) return;
  // Dedicated engine: no movable cells, all real objects static charges.
  std::vector<std::int32_t> none;
  Engine eng(ctx_, db_, none, cfg_, fillers_);
  // Pin every movable object as a static charge, gathered from the view
  // (the engine constructor just synced it) via arena buffers.
  const PlacementView& pv = db_.view();
  const auto mov = pv.movable();
  const auto lx = pv.lx(), ly = pv.ly(), ow = pv.w(), oh = pv.h();
  auto cx = pv.arena().doubles("gp.static.cx", mov.size());
  auto cy = pv.arena().doubles("gp.static.cy", mov.size());
  auto cw = pv.arena().doubles("gp.static.w", mov.size());
  auto ch = pv.arena().doubles("gp.static.h", mov.size());
  for (std::size_t k = 0; k < mov.size(); ++k) {
    const auto obj = static_cast<std::size_t>(mov[k]);
    cx[k] = lx[obj] + ow[obj] * 0.5;
    cy[k] = ly[obj] + oh[obj] * 0.5;
    cw[k] = ow[obj];
    ch[k] = oh[obj];
  }
  eng.density.stampStaticCharges({cx, cy, cw, ch});
  eng.lambda = 1.0;  // density force only; wirelength plays no role

  NesterovOptimizer opt = eng.makeOptimizer();
  const auto v0 = eng.startVector(none);
  opt.initialize(v0);
  for (int k = 0; k < iterations && !ctx_.cancelled(); ++k) opt.step();
  if (!allFinite(opt.solution())) {
    // Fillers are an optimizer-internal device; a blown-up prelude must not
    // poison cGP. Keep the (finite) input distribution instead.
    ctx_.log().warn(
        "filler-only placement went non-finite; keeping input positions");
    return;
  }
  eng.writeBack(opt.solution(), none);
  ctx_.log().info("filler-only placement: %d iterations over %zu fillers",
                  iterations, fillers_.size());
}

GpResult GlobalPlacer::run(TraceFn trace, const GpRunControl& ctl) {
  GpResult result;
  Engine eng(ctx_, db_, movables_, cfg_, fillers_);
  if (eng.nVars == 0) return result;

  NesterovOptimizer opt = eng.makeOptimizer();

  HealthMonitor monitor(cfg_.health);
  double prevHpwl = 0.0;
  double refHpwl = 0.0;
  double startTau = 0.0;
  int startIter = 0;
  if (ctl.resume != nullptr) {
    // Warm start from a saved checkpoint: restore the optimizer and the
    // schedule scalars and continue the exact trajectory.
    const GpCheckpointState& rs = *ctl.resume;
    if (rs.opt.u.size() != 2 * eng.nVars) {
      result.status = Status::invalidInput(
          "checkpoint dimension " + std::to_string(rs.opt.u.size()) +
          " does not match engine dimension " +
          std::to_string(2 * eng.nVars));
      ctx_.log().warn("GP: %s", result.status.message().c_str());
      return result;
    }
    if (!allFinite(rs.opt.u) || !allFinite(rs.opt.cur)) {
      result.status =
          Status::invalidInput("checkpoint holds non-finite positions");
      ctx_.log().warn("GP: %s", result.status.message().c_str());
      return result;
    }
    opt.restore(rs.opt);
    eng.lambda = rs.lambda;
    eng.updateGamma(rs.tau);
    prevHpwl = rs.prevHpwl;
    refHpwl = rs.refHpwl;
    startTau = rs.tau;
    startIter = rs.iter;
    monitor.resetAfterRollback(prevHpwl, rs.tau);
    ctx_.log().info(
        "GP: resuming from checkpoint at iter %d (HPWL %.4g, tau %.3f)",
        startIter, prevHpwl, rs.tau);
  } else {
    const auto v0 = eng.startVector(movables_);
    if (!allFinite(v0)) {
      result.status = Status::invalidInput(
          "non-finite start positions; run PlacementDB::sanitize() first");
      ctx_.log().warn("GP: %s", result.status.message().c_str());
      return result;
    }
    startTau = eng.overflow(v0);
    eng.updateGamma(startTau);
    eng.lambda = cfg_.initialLambda.value_or(eng.initialLambda(v0));
    opt.initialize(v0);
    prevHpwl = eng.exactHpwl(v0);
    refHpwl = prevHpwl;
  }
  const double refDelta =
      std::max(1e-12, kRefHpwlDeltaFrac * std::max(refHpwl, 1.0));

  // Best-so-far checkpoint for rollback recovery. The start state is a
  // valid (if poor) fallback: its positions are finite by the scan above
  // even if an injected fault already poisoned the bootstrap gradients.
  struct Checkpoint {
    NesterovOptimizer::Snapshot snap;
    double lambda = 0.0;
    double tau = 0.0;
    double hpwl = 0.0;
    int iter = 0;
  };
  Checkpoint best;
  opt.snapshotInto(best.snap);
  best.lambda = eng.lambda;
  best.tau = startTau;
  best.hpwl = prevHpwl;
  best.iter = startIter;

  int recoveries = 0;

  int iter = startIter;
  for (; iter < cfg_.maxIterations; ++iter) {
    // The context's cancel token and wall-clock deadline, polled once per
    // iteration: either stop lands within one iteration. The current state
    // is returned when finite (it passed its last health check), the
    // best-so-far checkpoint otherwise. Durable mid-stage snapshots written
    // before the stop stay valid, so a preempted job resumes the same
    // trajectory bit-exactly.
    const bool cancelled = ctx_.cancelled();
    if (cancelled || ctx_.deadlineExceeded()) {
      result.status =
          cancelled ? Status::cancelled("stage cancelled (" +
                                        ctx_.cancelReason() +
                                        "); best-so-far returned")
                    : Status::timeout("run deadline passed; best-so-far "
                                      "returned");
      if (!allFinite(opt.solution())) {
        opt.restore(best.snap);
        eng.lambda = best.lambda;
      }
      ctx_.log().warn("GP: stopped at iter %d: %s", iter,
                      result.status.message().c_str());
      break;
    }
    const auto info = opt.step();

    const double curHpwl = eng.exactHpwl(opt.solution());
    const double tau = eng.overflow(opt.solution());

    const HealthEvent ev = monitor.observe(iter, curHpwl, tau, opt.solution(),
                                           info.gradNorm);
    if (ev == HealthEvent::kNonFinite || ev == HealthEvent::kDiverged) {
      if (recoveries >= cfg_.health.maxRecoveries) {
        // Graceful degradation: return the best checkpoint with a typed
        // error instead of NaN positions or an infinite retry loop.
        opt.restore(best.snap);
        eng.lambda = best.lambda;
        result.status = Status::numericalDivergence(
            std::string(healthEventName(ev)) + " at iter " +
            std::to_string(iter) + "; recovery budget (" +
            std::to_string(cfg_.health.maxRecoveries) +
            ") exhausted, returning checkpoint from iter " +
            std::to_string(best.iter));
        ctx_.log().warn("GP: %s", result.status.message().c_str());
        ++iter;
        break;
      }
      ++recoveries;
      ctx_.log().warn(
          "GP: %s at iter %d (HPWL %.4g, tau %.3f); rollback to iter %d, "
          "recovery %d/%d",
          healthEventName(ev), iter, curHpwl, tau, best.iter, recoveries,
          cfg_.health.maxRecoveries);
      opt.restore(best.snap);
      opt.coolRestart(kAlphaResetScale);
      eng.lambda = best.lambda;
      eng.updateGamma(best.tau);
      monitor.resetAfterRollback(best.hpwl, best.tau);
      prevHpwl = best.hpwl;
      continue;  // this iteration produced no usable metrics
    }

    eng.updateGamma(tau);

    // Penalty schedule: aggressive while HPWL holds, relaxed when it
    // degrades (RePlAce-style mu).
    const double dHpwl = curHpwl - prevHpwl;
    double mu = dHpwl < 0.0
                    ? kLambdaMultMax
                    : std::pow(kLambdaMultMax, 1.0 - dHpwl / refDelta);
    mu = std::clamp(mu, kLambdaMultMin, kLambdaMultMax);
    eng.lambda *= mu;
    prevHpwl = curHpwl;

    // Refresh the checkpoint on the configured cadence whenever spreading
    // has not regressed: overflow is the progress metric of the stage.
    if (monitor.shouldCheckpoint(iter) && tau <= best.tau) {
      // snapshotInto reuses the checkpoint's capacity: refreshing the
      // best-so-far state allocates nothing in steady state.
      opt.snapshotInto(best.snap);
      best.lambda = eng.lambda;
      best.tau = tau;
      best.hpwl = curHpwl;
      best.iter = iter;
    }

    // Durable-checkpoint hook: hand out the state a resumed run needs to
    // continue from iteration iter+1 bit-exactly.
    if (ctl.saveEvery > 0 && ctl.save && (iter + 1) % ctl.saveEvery == 0) {
      ctl.save(GpCheckpointState{opt.snapshot(), eng.lambda, tau, prevHpwl,
                                 refHpwl, iter + 1});
    }

    if (trace) {
      // Sync positions so the callback can snapshot the live layout
      // (Fig. 2 / Fig. 3 benches plot from the DB mid-run).
      eng.writeBack(opt.solution(), movables_);
      trace(GpIterTrace{iter, curHpwl, tau, eng.lambda, eng.gammaX,
                        info.alpha, info.backtracks,
                        eng.density.energy(eng.pool)});
    }

    if (tau <= cfg_.targetOverflow && iter >= kMinIterations) {
      result.converged = true;
      ++iter;
      break;
    }
  }

  eng.writeBack(opt.solution(), movables_);
  lambda_ = eng.lambda;
  result.iterations = iter;
  result.recoveries = recoveries;
  result.finalHpwl = eng.exactHpwl(opt.solution());
  result.finalOverflow = eng.overflow(opt.solution());
  result.finalLambda = eng.lambda;
  result.gradEvals = opt.evalCount();
  result.densitySeconds = eng.densitySeconds;
  result.wirelengthSeconds = eng.wirelengthSeconds;
  result.backtracks = opt.backtrackCount();
  ctx_.stats().add("gp.iterations", static_cast<double>(iter));
  ctx_.stats().add("gp.gradEvals", static_cast<double>(result.gradEvals));
  ctx_.stats().add("gp.recoveries", static_cast<double>(recoveries));
  ctx_.log().info(
      "GP: %d iters, HPWL %.4g, overflow %.3f, converged=%d, "
      "recoveries=%d, status=%s",
      iter, result.finalHpwl, result.finalOverflow, result.converged ? 1 : 0,
      recoveries, statusCodeName(result.status.code()));
  return result;
}

}  // namespace ep
