#include "opt/cg.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/stats.h"
#include "util/timer.h"

namespace ep {

namespace {

/// Armijo sufficient-decrease constant.
constexpr double kArmijoC = 1e-4;
/// Step shrink factor per line-search trial.
constexpr double kShrink = 0.5;
/// Cap on line-search trials.
constexpr int kMaxTrials = 30;
/// First trial = kGrowth * last accepted step.
constexpr double kGrowth = 2.0;
/// Periodic steepest-descent restart interval.
constexpr int kRestartInterval = 50;

}  // namespace

CgOptimizer::CgOptimizer(std::size_t dim, ValueGradFn fn, CgConfig cfg,
                         ProjectionFn projection)
    : dim_(dim),
      fn_(std::move(fn)),
      cfg_(cfg),
      project_(std::move(projection)),
      x_(dim),
      grad_(dim),
      prevGrad_(dim),
      dir_(dim),
      trial_(dim),
      trialGrad_(dim) {}

double CgOptimizer::evaluate(std::span<const double> v,
                             std::span<double> grad) {
  ++evals_;
  return fn_(v, grad);
}

void CgOptimizer::initialize(std::span<const double> v0) {
  assert(v0.size() == dim_);
  std::copy(v0.begin(), v0.end(), x_.begin());
  if (project_) project_(x_);
  f_ = evaluate(x_, grad_);
  for (std::size_t i = 0; i < dim_; ++i) dir_[i] = -grad_[i];
  lastStep_ = cfg_.initialStep;
  iter_ = 0;
}

CgOptimizer::StepInfo CgOptimizer::step() {
  Timer total;
  StepInfo info;

  // Direction must be a descent direction; otherwise restart.
  double gd = dot(grad_, dir_);
  if (gd >= 0.0 || (iter_ > 0 && iter_ % kRestartInterval == 0)) {
    for (std::size_t i = 0; i < dim_; ++i) dir_[i] = -grad_[i];
    gd = dot(grad_, dir_);
  }

  // Armijo backtracking line search along dir_.
  Timer ls;
  double t = std::max(lastStep_ * kGrowth, 1e-12);
  double fTrial = f_;
  int trials = 0;
  bool accepted = false;
  while (trials < kMaxTrials) {
    for (std::size_t i = 0; i < dim_; ++i) trial_[i] = x_[i] + t * dir_[i];
    if (project_) project_(trial_);
    fTrial = evaluate(trial_, trialGrad_);
    ++trials;
    if (fTrial <= f_ + kArmijoC * t * gd) {
      accepted = true;
      break;
    }
    t *= kShrink;
  }
  lineSearchSec_ += ls.seconds();

  if (!accepted) {
    // Stalled: fall back to a tiny steepest-descent nudge so progress (and
    // termination at the caller) remains well defined.
    const double gn = norm2(grad_);
    const double tiny = gn > 0.0 ? 1e-6 / gn : 0.0;
    for (std::size_t i = 0; i < dim_; ++i) trial_[i] = x_[i] - tiny * grad_[i];
    if (project_) project_(trial_);
    fTrial = evaluate(trial_, trialGrad_);
    ++trials;
    t = tiny;
  }

  // Polak-Ribiere+ update.
  std::swap(prevGrad_, grad_);
  std::swap(grad_, trialGrad_);
  std::swap(x_, trial_);
  f_ = fTrial;
  lastStep_ = t;

  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    num += grad_[i] * (grad_[i] - prevGrad_[i]);
    den += prevGrad_[i] * prevGrad_[i];
  }
  const double beta = den > 0.0 ? std::max(0.0, num / den) : 0.0;
  for (std::size_t i = 0; i < dim_; ++i) dir_[i] = -grad_[i] + beta * dir_[i];

  ++iter_;
  totalSec_ += total.seconds();
  info.alpha = t;
  info.trials = trials;
  info.objective = f_;
  info.gradNorm = norm2(grad_);
  return info;
}

}  // namespace ep
