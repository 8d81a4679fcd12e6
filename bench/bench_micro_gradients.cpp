// Microbenchmarks for the per-iteration gradient kernels of mGP: the
// electrostatic density update+gradient and the WA vs LSE wirelength
// gradients, on generated circuits of increasing size. These are the 57%
// and 29% shares of Fig. 7.
#include <benchmark/benchmark.h>

#include "density/electro.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "wirelength/wl.h"

namespace {

struct Fixture {
  ep::RuntimeContext ctx;
  ep::PlacementDB db;
  std::vector<std::int32_t> objToVar;
  std::vector<double> x, y, w, h, gx, gy;

  explicit Fixture(std::size_t cells) {
    ep::GenSpec spec;
    spec.name = "micro";
    spec.numCells = cells;
    spec.seed = cells;
    db = ep::generateCircuit(spec);
    ep::quadraticInitialPlace(db, ctx);
    objToVar.assign(db.objects.size(), -1);
    std::int32_t v = 0;
    for (auto i : db.movable()) {
      objToVar[static_cast<std::size_t>(i)] = v++;
      const auto& o = db.objects[static_cast<std::size_t>(i)];
      const ep::Point c = o.center();
      x.push_back(c.x);
      y.push_back(c.y);
      w.push_back(o.w);
      h.push_back(o.h);
    }
    gx.resize(x.size());
    gy.resize(x.size());
  }
};

void BM_DensityUpdateAndGradient(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const std::size_t m = ep::BinGrid::chooseResolution(f.x.size());
  ep::ElectroDensity ed(f.db.region, m, m, 1.0);
  ed.stampFixed(f.db);
  const ep::ChargeView view{f.x, f.y, f.w, f.h};
  for (auto _ : state) {
    ed.update(view);
    ed.gradient(view, f.gx, f.gy);
    benchmark::DoNotOptimize(f.gx.data());
  }
}
BENCHMARK(BM_DensityUpdateAndGradient)->Arg(500)->Arg(2000)->Arg(8000);

void BM_WaWirelengthGradient(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const ep::VarView view{&f.db, f.objToVar, f.x, f.y};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ep::waWirelengthGrad(view, 1.0, 1.0, f.gx, f.gy));
  }
}
BENCHMARK(BM_WaWirelengthGradient)->Arg(500)->Arg(2000)->Arg(8000);

void BM_LseWirelengthGradient(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const ep::VarView view{&f.db, f.objToVar, f.x, f.y};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ep::lseWirelengthGrad(view, 1.0, 1.0, f.gx, f.gy));
  }
}
BENCHMARK(BM_LseWirelengthGradient)->Arg(500)->Arg(2000)->Arg(8000);

void BM_ExactHpwl(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ep::hpwl(f.db));
  }
}
BENCHMARK(BM_ExactHpwl)->Arg(500)->Arg(2000)->Arg(8000);

}  // namespace

BENCHMARK_MAIN();
