// Placer face-off — runs all four engines in this repo (min-cut, quadratic
// spreading, bell-shape nonlinear CG, and ePlace) on the same circuit and
// prints a comparison, mirroring one row of the paper's tables. A compact
// way to explore how the algorithm categories behave as the circuit knobs
// (size, macros, density cap) change.
//
//   placer_faceoff [cells] [macros] [density]
#include <cstdio>
#include <cstdlib>

#include "baseline/bell.h"
#include "baseline/mincut.h"
#include "baseline/quadratic.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/timer.h"
#include "wirelength/wl.h"

namespace {

struct Row {
  const char* name;
  double hpwl, scaled, overflow, seconds;
  bool legal;
};

void finish(ep::PlacementDB& db, ep::RuntimeContext& ctx) {
  if (db.numMovableMacros() > 0) {
    ep::legalizeMacros(db, ctx);
    for (auto& o : db.objects) {
      if (o.kind == ep::ObjKind::kMacro) o.fixed = true;
    }
    db.finalize();
  }
  ep::legalizeCells(db, ctx);
  ep::detailPlace(db, ctx);
}

Row measure(const char* name, ep::PlacementDB& db, double seconds) {
  return {name,
          ep::hpwl(db),
          ep::scaledHpwl(db),
          ep::densityOverflow(db).overflow,
          seconds,
          ep::checkLegality(db).legal};
}

}  // namespace

int main(int argc, char** argv) {
  ep::RuntimeContext ctx;
  ep::GenSpec spec;
  spec.name = "faceoff";
  spec.numCells = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1500;
  spec.numMovableMacros = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  spec.targetDensity = argc > 3 ? std::atof(argv[3]) : 1.0;
  if (spec.targetDensity < 1.0) spec.utilization = 0.45 * spec.targetDensity;
  spec.seed = 4242;

  std::printf("circuit: %zu cells, %zu macros, rho_t %.2f\n", spec.numCells,
              spec.numMovableMacros, spec.targetDensity);
  std::vector<Row> rows;

  {
    ep::PlacementDB db = ep::generateCircuit(spec);
    ep::Timer t;
    ep::minCutPlace(db, ctx);
    finish(db, ctx);
    rows.push_back(measure("min-cut (Capo-like)", db, t.seconds()));
  }
  {
    ep::PlacementDB db = ep::generateCircuit(spec);
    ep::Timer t;
    ep::quadraticPlace(db, ctx);
    finish(db, ctx);
    rows.push_back(measure("quadratic (FastPlace-like)", db, t.seconds()));
  }
  {
    ep::PlacementDB db = ep::generateCircuit(spec);
    ep::Timer t;
    ep::quadraticInitialPlace(db, ctx);
    ep::bellPlace(db, ctx);
    finish(db, ctx);
    rows.push_back(measure("bell-shape CG (APlace-like)", db, t.seconds()));
  }
  {
    ep::PlacementDB db = ep::generateCircuit(spec);
    ep::Timer t;
    ep::runSupervisedFlow(db, {}, ctx, ep::plainPolicy());
    rows.push_back(measure("ePlace", db, t.seconds()));
  }

  std::printf("\n%-28s %12s %12s %10s %8s %6s\n", "placer", "HPWL", "sHPWL",
              "overflow", "time(s)", "legal");
  const double ref = rows.back().scaled;
  for (const auto& r : rows) {
    std::printf("%-28s %12.4g %12.4g %10.4f %8.2f %6s  (%+.1f%% vs ePlace)\n",
                r.name, r.hpwl, r.scaled, r.overflow, r.seconds,
                r.legal ? "yes" : "no", (r.scaled / ref - 1.0) * 100.0);
  }
  return 0;
}
