// The ePlace global placement engine (Sec. V): Nesterov's method over the
// composite cost f(v) = W~(v) + lambda N(v), with
//   * weighted-average wirelength smoothing, gamma scheduled from the
//     density overflow tau (sharpening as spreading progresses);
//   * eDensity electrostatic penalty with spectral gradients;
//   * the approximated diagonal preconditioner |E_i| + lambda q_i (Eq. 12/13);
//   * penalty factor lambda normalized from the first-iteration gradient
//     ratio and multiplied per iteration by mu in [0.95, 1.1] driven by the
//     HPWL delta (aggressive while wirelength is stable, relaxed when it
//     degrades);
//   * termination at overflow tau <= 10% (configurable) or the iteration cap.
//
// The same engine runs both placement phases: mGP optimizes all movables
// (macros + cells + fillers); cGP re-runs it with macros fixed, after a
// filler-only placement redistributes fillers around the legalized macros
// (Sec. VI-B).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "eplace/filler.h"
#include "model/netlist.h"
#include "opt/health.h"
#include "opt/nesterov.h"
#include "util/status.h"

namespace ep {

class RuntimeContext;

/// Upper bound of the per-iteration lambda multiplier mu. cGP also starts
/// from lambda_mGP * kLambdaMultMax^-m (Sec. VI-B).
inline constexpr double kLambdaMultMax = 1.1;

struct GpConfig {
  double targetOverflow = 0.10;  ///< mGP stop criterion (Sec. III)
  int maxIterations = 3000;      ///< paper's cap (Sec. V-D)
  std::size_t gridNx = 0;  ///< 0 = auto (power of two tracking object count)
  std::size_t gridNy = 0;
  bool enablePreconditioner = true;  ///< Sec. V-D ablation switch
  bool enableBacktracking = true;    ///< Sec. V-C ablation switch
  bool enableMomentum = true;        ///< degrade to gradient descent
  /// Override the initial lambda (cGP uses lambda_mGP * 1.1^-m, Sec. VI-B).
  std::optional<double> initialLambda;
  std::uint64_t fillerSeed = 7;
  /// Numerical health monitoring and checkpoint/rollback recovery
  /// (docs/ROBUSTNESS.md).
  HealthConfig health;
};

/// Per-iteration trace record (drives Fig. 2 / Fig. 3 benches).
struct GpIterTrace {
  int iter = 0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double lambda = 0.0;
  double gamma = 0.0;
  double alpha = 0.0;
  int backtracks = 0;
  double energy = 0.0;  ///< N(v)
};

struct GpResult {
  int iterations = 0;
  double finalOverflow = 0.0;
  double finalHpwl = 0.0;
  double finalLambda = 0.0;
  bool converged = false;  ///< reached target overflow within the cap
  long gradEvals = 0;
  long backtracks = 0;
  /// OK on a normal run (including graceful target miss at the iteration
  /// cap); kNumericalDivergence when the recovery budget was exhausted and
  /// the best checkpoint was returned; kTimeout or kCancelled when the
  /// context's deadline passed or its cancel token fired (best-so-far state
  /// returned).
  Status status;
  int recoveries = 0;  ///< rollback-and-recover events that succeeded
  /// Wall seconds in the density (charge stamping, spectral solve, field
  /// gather) and wirelength (WA gradient) halves of every gradient
  /// evaluation: the Fig. 7 split. "Other" is the stage's seconds minus
  /// both.
  double densitySeconds = 0.0;
  double wirelengthSeconds = 0.0;
};

/// Mid-stage checkpoint of a GP run: the optimizer snapshot plus the
/// schedule scalars (lambda, the HPWL samples driving mu, the overflow
/// anchoring gamma). Restoring one and rerunning continues the exact
/// iteration trajectory — this is what the FlowSupervisor serializes into
/// durable snapshots (util/snapshot, docs/ROBUSTNESS.md).
struct GpCheckpointState {
  NesterovOptimizer::Snapshot opt;
  double lambda = 0.0;
  double tau = 0.0;       ///< overflow at the checkpoint (gamma schedule)
  double prevHpwl = 0.0;  ///< last HPWL sample (mu schedule)
  double refHpwl = 0.0;   ///< stage-start HPWL anchoring the mu schedule
  int iter = 0;           ///< next iteration index to run
};

/// Optional checkpoint plumbing for run(): a periodic save callback and/or
/// a state to resume from instead of a cold initialize. Default-constructed
/// control is a no-op, so existing callers are unaffected.
struct GpRunControl {
  int saveEvery = 0;  ///< iterations between save() calls; 0 = never
  std::function<void(const GpCheckpointState&)> save;
  /// When set, the run restores this state (dimensions must match the
  /// engine: same movable set and filler count) and continues from
  /// `resume->iter` bit-exactly.
  const GpCheckpointState* resume = nullptr;
};

class GlobalPlacer {
 public:
  using TraceFn = std::function<void(const GpIterTrace&)>;

  /// `movables`: DB object ids this phase optimizes (others stay put and are
  /// treated as fixed charges if their `fixed` flag is set in the DB; a
  /// non-fixed object excluded from `movables` would neither move nor repel,
  /// so phases must keep flags consistent — the Flow does).
  ///
  /// `ctx` supplies the thread pool, fault injector, log sink, stats
  /// registry and wall-clock deadline. The context must outlive the placer
  /// (borrowed, not owned).
  GlobalPlacer(PlacementDB& db, std::vector<std::int32_t> movables,
               GpConfig cfg, RuntimeContext& ctx);

  /// Create fillers from the DB whitespace budget (mGP) …
  void makeFillersFromDb();
  /// … or adopt an existing set (cGP reuses mGP's fillers).
  void setFillers(FillerSet fillers);
  [[nodiscard]] const FillerSet& fillers() const { return fillers_; }

  /// Filler-only placement (Sec. VI-B): cells pinned, fillers spread by the
  /// density force alone for a fixed number of iterations.
  void runFillerOnly(int iterations);

  /// Run the Nesterov loop until the overflow target or iteration cap.
  /// `ctl` optionally saves periodic checkpoints and/or resumes from one.
  GpResult run(TraceFn trace = {}, const GpRunControl& ctl = {});

  [[nodiscard]] double lambda() const { return lambda_; }

 private:
  struct Engine;  // internal arrays + callbacks, built per run
  RuntimeContext& ctx_;
  PlacementDB& db_;
  std::vector<std::int32_t> movables_;
  GpConfig cfg_;
  FillerSet fillers_;
  double lambda_ = 0.0;
};

}  // namespace ep
