// The complete ePlace flow (Fig. 1 of the paper):
//
//   mIP  quadratic wirelength-only initial placement
//   mGP  mixed-size global placement (Nesterov + eDensity, all movables +
//        fillers)
//   mLG  annealing macro legalization (mixed-size designs only)
//   cGP  standard-cell global placement with macros fixed: filler-only
//        redistribution, lambda rewound by 1.1^-m, then the same engine
//   cDP  legalization + detail placement of standard cells
//
// Standard-cell designs (no movable macros) skip mLG and cGP, exactly as
// the paper runs ISPD 2005/2006 ("with mLG and cGP disabled").
//
// runSupervisedFlow (eplace/supervisor.h) sequences the stages; pass
// plainPolicy() for the flow as published (one attempt per stage).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "eplace/global_placer.h"
#include "eval/metrics.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "model/netlist.h"
#include "qp/initial_place.h"
#include "util/status.h"
#include "util/timer.h"

namespace ep {

class RuntimeContext;

/// The flow's stages in the order they run. It is also the stage cursor
/// persisted in snapshots: the next stage a resumed run executes. kDone
/// snapshots hold the finished placement.
enum class FlowStage : std::uint8_t {
  kMip = 0,
  kMgp,
  kMlg,
  kCgp,
  kCdp,
  kDone,
};

struct FlowConfig {
  GpConfig gp;  ///< used by mGP and (with rewound lambda) cGP
  MlgConfig mlg;
  DetailConfig detail;
  bool enableFillerOnly = true;  ///< Sec. VI-B ablation switch
  bool runDetail = true;
  /// Per-iteration hook for the global placement stages; `stage` is "mGP"
  /// or "cGP" (the filler-only prelude moves no real objects and is not
  /// traced). The DB holds live positions during the call.
  std::function<void(const std::string& stage, const GpIterTrace&)> gpTrace;
};

struct StageMetrics {
  double hpwl = 0.0;
  double overflow = 0.0;
  double seconds = 0.0;
  int iterations = 0;
  bool ran = false;
};

/// One coarse level of the multilevel V-cycle (MultilevelConfig):
/// "mGP@L<level>" rows in the run record. Level indices count down toward
/// the flat netlist — the coarsest level has the highest index, level 0 is
/// the last clustered level before flat mGP refinement.
struct LevelMetrics {
  int level = 0;
  std::size_t clusters = 0;  ///< movable objects in the clustered instance
  StageMetrics metrics;
};

struct FlowResult {
  StageMetrics mip, mgp, mlg, cgp, cdp;
  /// Coarse V-cycle levels run before flat mGP, coarsest first. Empty for
  /// flat (non-multilevel) runs, so existing records are unchanged.
  std::vector<LevelMetrics> mgpLevels;
  double finalHpwl = 0.0;
  double finalScaledHpwl = 0.0;
  LegalityReport legality;
  GpResult mgpResult, cgpResult;
  MlgResult mlgResult;
  LegalizeResult legalizeResult;
  DetailResult detailResult;
  double totalSeconds = 0.0;
  /// OK for a clean run. kNumericalDivergence / kTimeout when a placement
  /// stage degraded gracefully (the first failing stage wins); the result
  /// then holds that stage's best-checkpoint placement, finite and inside
  /// the region, carried through the remaining stages.
  Status status;
};

// ---------------------------------------------------------------------------
// Stage-level decomposition. The FlowSupervisor (eplace/supervisor.h)
// drives these in order and wraps each call with its policy's wall-clock
// budgets, retries, fallbacks and inter-stage invariant gates, threading
// GpRunControl through the GP stages for durable checkpoint/resume.
// ---------------------------------------------------------------------------

/// Mutable state threaded through the stage functions. `ctx` is borrowed
/// (never owned) and must be set, non-null, before the first stage runs.
/// It stays a pointer, not a reference, only because the repository
/// benchmark default-constructs a FlowState and assigns `&s.context()`, and
/// its sources change only with the benchmark.
struct FlowState {
  FlowConfig cfg;
  FlowResult res;
  FillerSet fillers;  ///< mGP filler set, reused by cGP (Sec. VI-B)
  bool mixedSize = false;
  RuntimeContext* ctx = nullptr;
  Timer total;
};

/// Metrics snapshot of the current DB state, as recorded per stage.
StageMetrics flowStageMetrics(const PlacementDB& db, double seconds,
                              int iterations);

void flowStageMip(PlacementDB& db, FlowState& st);
void flowStageMgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl = {});
void flowStageMlg(PlacementDB& db, FlowState& st);
/// Freezes movable macros (mLG's output) for the rest of the flow.
void flowFreezeMacros(PlacementDB& db);
void flowStageCgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl = {});
void flowStageCdp(PlacementDB& db, FlowState& st);
/// Makes `failure`, the failure of `stage`, the run's status unless an
/// earlier stage failed first: the first failing stage wins. mGP and cGP
/// keep a degraded result they accepted on their GpResult only, so the
/// statuses of the GP stages before `stage` are folded in first.
void flowComposeStatus(FlowResult& res, FlowStage stage,
                       const Status& failure);
/// Final metrics / legality / status aggregation plus the summary log line.
/// The status folds in every GP stage's (flowComposeStatus at kDone).
void flowFinish(PlacementDB& db, FlowState& st);

}  // namespace ep
