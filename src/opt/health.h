// Numerical health monitoring for the Nesterov placement loop.
//
// The Lipschitz-steplength loop is value-free: nothing in Algorithm 1
// notices when a bad steplength estimate or a corrupted gradient sends the
// iterate to NaN or flings every cell to the region boundary. The monitor
// watches the cheap per-iteration signals — position/gradient finiteness,
// a smoothed HPWL blow-up ratio, density-overflow regression past the best
// level seen — and classifies each iteration so the caller (GlobalPlacer)
// can roll back to a checkpoint or stop gracefully. Wall-clock limits are
// not its concern: the RuntimeContext deadline is the only one.
// Thresholds and the recovery policy are documented in docs/ROBUSTNESS.md.
#pragma once

#include <span>

namespace ep {

struct HealthConfig {
  /// Iterations between checkpoint refresh opportunities (the caller owns
  /// the actual snapshot; shouldCheckpoint() just gates the cadence).
  int checkpointEvery = 25;
  /// Rollback attempts before giving up and returning the best checkpoint.
  int maxRecoveries = 3;
};

enum class HealthEvent {
  kOk = 0,
  kNonFinite,  ///< NaN/Inf in positions, HPWL, overflow or gradient norm
  kDiverged,   ///< finite but blowing up per the ratio/margin thresholds
};

const char* healthEventName(HealthEvent e);

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg);

  /// Classifies one iteration. `positions` is the full variable vector of
  /// the optimizer (scanned for NaN/Inf).
  HealthEvent observe(int iter, double hpwl, double overflow,
                      std::span<const double> positions, double gradNorm);

  /// True on iterations where the caller should refresh its checkpoint.
  [[nodiscard]] bool shouldCheckpoint(int iter) const;

  /// Re-anchors the smoothed statistics after the caller rolled back to a
  /// checkpoint taken at (hpwl, overflow).
  void resetAfterRollback(double hpwl, double overflow);

 private:
  HealthConfig cfg_;
  double smoothedHpwl_ = -1.0;  // <0 = unseeded
  double bestOverflow_ = -1.0;
};

/// True when every element of `v` is finite.
bool allFinite(std::span<const double> v);

}  // namespace ep
