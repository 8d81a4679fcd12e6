// Conjugate-gradient nonlinear optimizer with Armijo backtracking line
// search. This is the optimizer class of the prior nonlinear placers the
// paper compares against (APlace / NTUplace3-style); Sec. V-A quantifies
// line search as >60% of their runtime, which bench_ablation_linesearch
// reproduces via the lineSearchSeconds() counter.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "opt/nesterov.h"  // ProjectionFn

namespace ep {

/// Evaluate the objective at `v`, writing its gradient into `grad`; returns
/// the objective value, which the Armijo test needs (unlike Nesterov's
/// value-free GradFn).
using ValueGradFn =
    std::function<double(std::span<const double> v, std::span<double> grad)>;

struct CgConfig {
  double initialStep = 1.0;       ///< first iteration trial step
};

class CgOptimizer {
 public:
  CgOptimizer(std::size_t dim, ValueGradFn fn, CgConfig cfg = {},
              ProjectionFn projection = {});

  void initialize(std::span<const double> v0);

  struct StepInfo {
    double alpha = 0.0;
    int trials = 0;          ///< line-search evaluations this iteration
    double objective = 0.0;  ///< f at the accepted point
    double gradNorm = 0.0;
  };

  /// One Polak-Ribiere+ iteration with Armijo line search.
  StepInfo step();

  [[nodiscard]] std::span<const double> solution() const { return x_; }
  [[nodiscard]] long evalCount() const { return evals_; }
  /// Wall time spent inside line-search evaluations (Sec. V-A experiment).
  [[nodiscard]] double lineSearchSeconds() const { return lineSearchSec_; }
  [[nodiscard]] double totalSeconds() const { return totalSec_; }

 private:
  double evaluate(std::span<const double> v, std::span<double> grad);

  std::size_t dim_;
  ValueGradFn fn_;
  CgConfig cfg_;
  ProjectionFn project_;

  std::vector<double> x_, grad_, prevGrad_, dir_, trial_, trialGrad_;
  double f_ = 0.0;
  double lastStep_ = 0.0;
  int iter_ = 0;
  long evals_ = 0;
  double lineSearchSec_ = 0.0;
  double totalSec_ = 0.0;
};

}  // namespace ep
