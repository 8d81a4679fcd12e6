#include "opt/health.h"

#include <cmath>

namespace ep {

/// Instantaneous HPWL above this multiple of its own exponential moving
/// average counts as divergence (normal spreading moves HPWL a few percent
/// per iteration; a 4x jump is an instability).
constexpr double kHpwlBlowupRatio = 4.0;
/// Overflow this far above the best overflow seen counts as divergence
/// (tau decreases as spreading progresses; a large regression means the
/// layout exploded). Absolute tau units.
constexpr double kOverflowBlowupMargin = 0.3;
/// Divergence checks engage only after this many iterations: the first
/// steps legitimately reshuffle the layout.
constexpr int kWarmupIterations = 10;
/// EMA weight of the newest HPWL sample.
constexpr double kHpwlSmoothing = 0.25;

const char* healthEventName(HealthEvent e) {
  switch (e) {
    case HealthEvent::kOk:
      return "ok";
    case HealthEvent::kNonFinite:
      return "non-finite";
    case HealthEvent::kDiverged:
      return "diverged";
  }
  return "unknown";
}

bool allFinite(std::span<const double> v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

HealthMonitor::HealthMonitor(HealthConfig cfg) : cfg_(cfg) {}

bool HealthMonitor::shouldCheckpoint(int iter) const {
  const int every = cfg_.checkpointEvery > 0 ? cfg_.checkpointEvery : 1;
  return iter % every == 0;
}

void HealthMonitor::resetAfterRollback(double hpwl, double overflow) {
  smoothedHpwl_ = hpwl;
  // Keep bestOverflow_: the rollback target was at least that good, and a
  // repeat offender must not ratchet the divergence threshold upward.
  if (bestOverflow_ < 0.0 || overflow < bestOverflow_) bestOverflow_ = overflow;
}

HealthEvent HealthMonitor::observe(int iter, double hpwl, double overflow,
                                   std::span<const double> positions,
                                   double gradNorm) {
  if (!std::isfinite(hpwl) || !std::isfinite(overflow) ||
      !std::isfinite(gradNorm) || !allFinite(positions)) {
    return HealthEvent::kNonFinite;
  }

  const bool warm = iter >= kWarmupIterations;
  if (warm && smoothedHpwl_ > 0.0 && hpwl > kHpwlBlowupRatio * smoothedHpwl_) {
    return HealthEvent::kDiverged;
  }
  if (warm && bestOverflow_ >= 0.0 &&
      overflow > bestOverflow_ + kOverflowBlowupMargin) {
    return HealthEvent::kDiverged;
  }

  // Healthy: fold the sample into the smoothed statistics.
  smoothedHpwl_ = smoothedHpwl_ < 0.0
                      ? hpwl
                      : (1.0 - kHpwlSmoothing) * smoothedHpwl_ +
                            kHpwlSmoothing * hpwl;
  if (bestOverflow_ < 0.0 || overflow < bestOverflow_) bestOverflow_ = overflow;
  return HealthEvent::kOk;
}

}  // namespace ep
