// Microbenchmarks for the spectral substrate: SpectralPlan's DCT-II and sine
// synthesis, and the full Poisson solve at the grid sizes mGP uses.
// Validates the O(n log n) density-cost claim of Sec. IV empirically.
#include <benchmark/benchmark.h>

#include "fft/plan.h"
#include "fft/poisson.h"
#include "util/rng.h"

namespace {

void BM_Dct2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ep::SpectralPlan plan(n);
  ep::SpectralScratch scratch;
  ep::Rng rng(2);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.uniform();
  for (auto _ : state) {
    plan.dct2(data, scratch);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Dct2)->RangeMultiplier(2)->Range(64, 2048);

void BM_SineSynthesis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ep::SpectralPlan plan(n);
  ep::SpectralScratch scratch;
  ep::Rng rng(3);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.uniform();
  for (auto _ : state) {
    plan.sineSynthesis(data, scratch);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_SineSynthesis)->RangeMultiplier(2)->Range(64, 2048);

void BM_PoissonSolve(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  ep::PoissonSolver solver(m, m, 1.0, 1.0);
  ep::Rng rng(4);
  std::vector<double> rho(m * m);
  for (auto& x : rho) x = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    solver.solve(rho);
    benchmark::DoNotOptimize(solver.psi().data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(m * m));
}
BENCHMARK(BM_PoissonSolve)->RangeMultiplier(2)->Range(32, 512)->Complexity();

}  // namespace

BENCHMARK_MAIN();
