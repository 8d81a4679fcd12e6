// Shared harness for the experiment benches: runs each placer through the
// same finishing pipeline (macro legalization where applicable, cell
// legalization, detail placement) so table rows compare global-placement
// quality the way the paper's evaluation scripts do.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/bell.h"
#include "baseline/mincut.h"
#include "baseline/quadratic.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/timer.h"
#include "wirelength/wl.h"

namespace ep::bench {

struct RunMetrics {
  double hpwl = 0.0;
  double scaledHpwl = 0.0;
  double overflow = 0.0;
  double seconds = 0.0;
  bool legal = false;
};

/// Finish a baseline global placement: legalize macros (if any movable),
/// freeze them, then legalize + detail-place the cells. Every helper here
/// runs on the caller's context.
inline void finishBaseline(PlacementDB& db, RuntimeContext& ctx) {
  if (db.numMovableMacros() > 0) {
    legalizeMacros(db, ctx);
    for (auto& o : db.objects) {
      if (o.kind == ObjKind::kMacro) o.fixed = true;
    }
    db.finalize();
  }
  legalizeCells(db, ctx);
  detailPlace(db, ctx);
}

inline RunMetrics measure(const PlacementDB& db, double seconds) {
  RunMetrics m;
  m.hpwl = hpwl(db);
  m.scaledHpwl = scaledHpwl(db);
  m.overflow = densityOverflow(db).overflow;
  m.seconds = seconds;
  m.legal = checkLegality(db).legal;
  return m;
}

inline RunMetrics runEplace(const GenSpec& spec, RuntimeContext& ctx) {
  PlacementDB db = generateCircuit(spec);
  Timer t;
  runSupervisedFlow(db, {}, ctx, plainPolicy());
  return measure(db, t.seconds());
}

inline RunMetrics runMinCut(const GenSpec& spec, RuntimeContext& ctx) {
  PlacementDB db = generateCircuit(spec);
  Timer t;
  minCutPlace(db, ctx);
  finishBaseline(db, ctx);
  return measure(db, t.seconds());
}

inline RunMetrics runQuadratic(const GenSpec& spec, RuntimeContext& ctx) {
  PlacementDB db = generateCircuit(spec);
  Timer t;
  quadraticPlace(db, ctx);
  finishBaseline(db, ctx);
  return measure(db, t.seconds());
}

inline RunMetrics runBell(const GenSpec& spec, RuntimeContext& ctx) {
  PlacementDB db = generateCircuit(spec);
  Timer t;
  quadraticInitialPlace(db, ctx);  // nonlinear placers start from a QP seed
  bellPlace(db, ctx);
  finishBaseline(db, ctx);
  return measure(db, t.seconds());
}

/// Geometric-mean of per-circuit ratios vs the last column (ePlace).
inline double meanRatio(const std::vector<double>& values,
                        const std::vector<double>& reference) {
  double logSum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > 0.0 && reference[i] > 0.0) {
      logSum += std::log(values[i] / reference[i]);
      ++n;
    }
  }
  return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

/// True when the binary was invoked with --fast (subset of circuits for a
/// quick smoke run; default reproduces the full table).
inline bool fastMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fast") return true;
  }
  return false;
}

}  // namespace ep::bench
