// Developer tool: trace the mGP iteration dynamics (HPWL, overflow tau,
// penalty lambda, WA gamma, steplength alpha, backtracks, energy N) on a
// small circuit. Useful when tuning schedules — the healthy signature is
// lambda growing ~1.1x/iter, gamma shrinking with tau, alpha settling, and
// backtracks mostly 0-1.
//
//   debug_trace           standard-cell circuit
//   debug_trace mixed     adds movable macros
#include <cstdio>

#include "eplace/global_placer.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/log.h"

int main(int argc, char**) {
  ep::RuntimeContext ctx;
  ep::GenSpec spec;
  spec.name = "trace";
  spec.numCells = 1000;
  spec.numMovableMacros = argc > 1 ? 6 : 0;
  spec.numIo = 64;
  spec.seed = 2024;
  ep::PlacementDB db = ep::generateCircuit(spec);
  ep::quadraticInitialPlace(db, ctx);

  ep::GpConfig cfg;
  cfg.maxIterations = 600;
  ep::GlobalPlacer gp(db, db.movable(), cfg, ctx);
  gp.makeFillersFromDb();
  gp.run([](const ep::GpIterTrace& t) {
    if (t.iter % 20 == 0) {
      std::printf(
          "it %4d hpwl %10.4g tau %6.3f lambda %10.4g gamma %8.3g alpha "
          "%10.4g bt %d energy %10.4g\n",
          t.iter, t.hpwl, t.overflow, t.lambda, t.gamma, t.alpha,
          t.backtracks, t.energy);
    }
  });
  return 0;
}
