#include "opt/nesterov.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/parallel.h"
#include "util/stats.h"

namespace ep {

namespace {

/// epsilon of Alg. 2; < 1 encourages early return (paper uses 0.95).
constexpr double kBacktrackEps = 0.95;
/// Safety cap on the Alg. 2 loop (paper measures ~1.04 backtracks/iter;
/// the cap bounds worst-case gradient evaluations per iteration).
constexpr int kMaxBacktracks = 3;

}  // namespace

NesterovOptimizer::NesterovOptimizer(std::size_t dim, GradFn fn,
                                     NesterovConfig cfg,
                                     ProjectionFn projection,
                                     ThreadPool* pool)
    : dim_(dim),
      fn_(std::move(fn)),
      cfg_(cfg),
      project_(std::move(projection)),
      pool_(pool),
      u_(dim),
      cur_(dim),
      prev_(dim),
      curGrad_(dim),
      prevGrad_(dim),
      uNext_(dim),
      vNext_(dim),
      gradNext_(dim) {}

void NesterovOptimizer::evaluate(std::span<const double> v,
                                 std::span<double> grad) {
  ++evals_;
  fn_(v, grad);
}

template <typename Body>
void NesterovOptimizer::forRange(Body&& body) {
  if (pool_ != nullptr) {
    pool_->parallelFor(dim_,
                       [&](std::size_t, std::size_t i0, std::size_t i1) {
                         body(i0, i1);
                       });
  } else {
    body(std::size_t{0}, dim_);
  }
}

void NesterovOptimizer::initialize(std::span<const double> v0) {
  assert(v0.size() == dim_);
  std::copy(v0.begin(), v0.end(), cur_.begin());
  std::copy(v0.begin(), v0.end(), u_.begin());
  evaluate(cur_, curGrad_);
  // Fictitious previous iterate: a small gradient step backward in time so
  // that the first Lipschitz prediction has a (position, gradient) pair.
  double gmax = 0.0;
  for (double g : curGrad_) gmax = std::max(gmax, std::abs(g));
  const double s = gmax > 0.0 ? cfg_.bootstrapMove / gmax : 0.0;
  forRange([&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      prev_[i] = cur_[i] - s * curGrad_[i];
    }
  });
  if (project_) project_(prev_);
  evaluate(prev_, prevGrad_);
  a_ = 1.0;
  lastAlpha_ = 0.0;
  iter_ = 0;
}

NesterovOptimizer::Snapshot NesterovOptimizer::snapshot() const {
  return {u_, cur_, prev_, curGrad_, prevGrad_, a_, lastAlpha_, iter_};
}

void NesterovOptimizer::snapshotInto(Snapshot& s) const {
  s.u = u_;
  s.cur = cur_;
  s.prev = prev_;
  s.curGrad = curGrad_;
  s.prevGrad = prevGrad_;
  s.a = a_;
  s.lastAlpha = lastAlpha_;
  s.iter = iter_;
}

void NesterovOptimizer::restore(const Snapshot& s) {
  assert(s.u.size() == dim_);
  u_ = s.u;
  cur_ = s.cur;
  prev_ = s.prev;
  curGrad_ = s.curGrad;
  prevGrad_ = s.prevGrad;
  a_ = s.a;
  lastAlpha_ = s.lastAlpha;
  iter_ = s.iter;
}

void NesterovOptimizer::coolRestart(double alphaScale) {
  a_ = 1.0;
  if (std::isfinite(lastAlpha_) && lastAlpha_ > 0.0) {
    lastAlpha_ *= alphaScale;
  } else {
    lastAlpha_ = cfg_.bootstrapMove;
  }
  // Collapse the fictitious previous pair onto the current iterate so the
  // next Lipschitz prediction falls back to lastAlpha_ instead of a ratio
  // polluted by whatever state preceded the rollback.
  prev_ = cur_;
  prevGrad_ = curGrad_;
}

NesterovOptimizer::StepInfo NesterovOptimizer::step() {
  StepInfo info;

  const double dv = dist2(cur_, prev_);
  const double dg = dist2(curGrad_, prevGrad_);
  double alpha = (dg > 0.0 && dv > 0.0) ? dv / dg
                 : (lastAlpha_ > 0.0 ? lastAlpha_ : cfg_.bootstrapMove);
  // Guardrail: a NaN/Inf gradient pair poisons the Lipschitz ratio; fall
  // back to the last accepted steplength rather than propagating NaN into
  // every coordinate.
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    alpha = (std::isfinite(lastAlpha_) && lastAlpha_ > 0.0) ? lastAlpha_
                                                            : cfg_.bootstrapMove;
  }

  const double aNext = (1.0 + std::sqrt(4.0 * a_ * a_ + 1.0)) * 0.5;
  const double coef = cfg_.enableMomentum ? (a_ - 1.0) / aNext : 0.0;

  // Per-coordinate updates are element-wise, so running them on the pool is
  // bit-identical to the serial loops for any thread count.
  for (int bt = 0;; ++bt) {
    forRange([&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        uNext_[i] = cur_[i] - alpha * curGrad_[i];
      }
    });
    if (project_) project_(uNext_);
    forRange([&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        vNext_[i] = uNext_[i] + coef * (uNext_[i] - u_[i]);
      }
    });
    if (project_) project_(vNext_);

    evaluate(vNext_, gradNext_);

    if (!cfg_.enableBacktracking || bt >= kMaxBacktracks) {
      info.backtracks = bt;
      break;
    }
    const double ddv = dist2(vNext_, cur_);
    const double ddg = dist2(gradNext_, curGrad_);
    if (ddg <= 0.0 || ddv <= 0.0) {  // flat or zero move: accept
      info.backtracks = bt;
      break;
    }
    const double alphaRef = ddv / ddg;
    if (!std::isfinite(alphaRef)) {  // poisoned gradient: nothing to refine
      info.backtracks = bt;
      break;
    }
    // Backtrack only when the reference says the step was a genuine
    // overestimate; a reference at or above the current step cannot shrink
    // it (re-taking the same step would loop forever on e.g. an exact
    // quadratic where prediction is already tight).
    if (alphaRef >= alpha || alpha <= kBacktrackEps * alphaRef) {
      info.backtracks = bt;
      break;
    }
    alpha = alphaRef;
    ++backtracks_;
  }

  // Accept: shift the iterate history; the gradient at the accepted
  // lookahead point is reused next iteration.
  std::swap(u_, uNext_);
  std::swap(prev_, cur_);
  std::swap(cur_, vNext_);
  std::swap(prevGrad_, curGrad_);
  std::swap(curGrad_, gradNext_);
  a_ = aNext;
  lastAlpha_ = alpha;
  ++iter_;

  info.alpha = alpha;
  info.gradNorm = norm2(curGrad_);
  return info;
}

}  // namespace ep
