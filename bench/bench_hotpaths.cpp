// Hot-path microbenchmark: the per-kernel and per-dispatch costs that no
// end-to-end run shows on its own, at 1, 2 and 4 worker threads. Emits
// BENCH_hotpaths.json in the CWD.
//
//   bench_hotpaths [--smoke] [--kernel-record <path>]
//
// Every row is timed one way (timedRow): one untimed warm-up call, then N
// calls each timed on its own, reported as median and MAD (median absolute
// deviation) in ns, plus heap allocations per timed call. The process exits
// non-zero when any row allocates in steady state.
//
// --smoke shrinks the instance and times each row once (the perf-smoke ctest
// entry uses it as a does-it-run and zero-allocation gate, not a
// measurement). --kernel-record writes the 1-thread medians of the gated
// kernels as a RunRecord and exits (the CI kernel wall gate).
//
// Reading the output (docs/PERFORMANCE.md has the full guide):
//  * "hw_concurrency" is the machine's core count. Speedups only manifest
//    when it exceeds the thread count — on a 1-core container every
//    configuration runs the same work sequentially, so ns/op is flat there
//    by construction, not by defect.
//  * "kernels": the GP iteration's kernels on a fixed mid-GP-like state.
//  * "pool_dispatch": one ThreadPool::parallelFor over an n-element axpy —
//    the fixed cost every parallel kernel pays — plus an idle_us = 2000 row
//    per thread count: a call to parked workers.
//  * "transform_sweep": the serial 2-D DCT at each solver grid size.
//  * "steady_state_kernel_allocs": allocs_per_op summed over every row.
//
// Flow wall time, RSS, serve latency and the 100k scale point are measured
// by eplace_bench and the scale ctest lane, not here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "density/electro.h"
#include "fft/plan.h"
#include "gen/generator.h"
#include "model/netlist.h"
#include "model/placement_view.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/io.h"
#include "util/jsonlite.h"
#include "util/parallel.h"
#include "util/run_record.h"
#include "util/timer.h"
#include "wirelength/wl.h"

// --- allocation counter (this binary only) ----------------------------------
// Replacing the global operator new lets the bench attribute heap traffic to
// each row: after arena warm-up the steady-state Nesterov inner loop must
// allocate nothing, and the JSON below records the proof.
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t sz) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
// The one deallocation hook; every other form forwards here. Kept out of
// line so GCC does not inline free() into a new-expression's delete site
// and report it as a mismatched new/delete pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace ep;

std::uint64_t allocCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}

/// Median of `v` (sorted in place); the mean of the middle two when even.
double medianOf(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The one timing method, for every row: one untimed warm-up call lets
/// scratch arenas grow, then `calls` calls are each timed on their own,
/// each after a busy wait of `idleUs` (0 = back to back). Returns the row's
/// JSON object, for the section to add its own keys to. The timed calls
/// must run allocation-free for the zero-steady-state-alloc contract.
JsonValue timedRow(const std::string& name, int threads, int calls,
                   int idleUs, const auto& fn) {
  fn();
  std::vector<double> ns(static_cast<std::size_t>(calls));
  const std::uint64_t a0 = allocCount();
  for (double& t : ns) {
    for (const Timer idle; idle.seconds() * 1e6 < idleUs;) {
    }
    const Timer ct;
    fn();
    t = ct.seconds() * 1e9;
  }
  const double allocs =
      static_cast<double>(allocCount() - a0) / static_cast<double>(calls);
  const double median = medianOf(ns);
  for (double& t : ns) t = std::abs(t - median);
  JsonValue row = JsonValue::object();
  row.set("name", JsonValue::str(name));
  row.set("threads", JsonValue::number(threads));
  row.set("calls", JsonValue::number(calls));
  row.set("median_ns", JsonValue::number(median));
  row.set("mad_ns", JsonValue::number(medianOf(ns)));
  row.set("allocs_per_op", JsonValue::number(allocs));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  RuntimeContext ctx;
  bool smoke = false;
  std::string kernelRecordPath;  // --kernel-record <path>: kernels-only mode
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--kernel-record") == 0 && i + 1 < argc) {
      kernelRecordPath = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--kernel-record <path>]\n", argv[0]);
      return 2;
    }
  }
  const int kernelReps = smoke ? 1 : 20;
  const std::size_t cells = smoke ? 400 : 4000;
  const std::vector<int> threadCounts =
      kernelRecordPath.empty() ? std::vector<int>{1, 2, 4}
                               : std::vector<int>{1};

  // Every row is printed as one line, added to the steady-state allocation
  // total and appended to its section.
  double steadyAllocs = 0.0;
  auto push = [&](JsonValue& section, JsonValue row) {
    std::printf("%s\n", writeJson(row).c_str());
    steadyAllocs += row.getNumber("allocs_per_op");
    section.push(std::move(row));
  };

  // --- per-kernel timings on a fixed mid-GP-like state ----------------------
  GenSpec spec;
  spec.name = "hotpaths";
  spec.numCells = cells;
  spec.seed = 42;
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db, ctx);

  const auto movables = db.movable();
  const std::size_t nVars = movables.size();
  std::vector<std::int32_t> objToVar(db.objects.size(), -1);
  std::vector<double> x(nVars), y(nVars), w(nVars), h(nVars);
  for (std::size_t v = 0; v < nVars; ++v) {
    const auto obj = static_cast<std::size_t>(movables[v]);
    objToVar[obj] = static_cast<std::int32_t>(v);
    const Point c = db.objects[obj].center();
    x[v] = c.x;
    y[v] = c.y;
    w[v] = db.objects[obj].w;
    h[v] = db.objects[obj].h;
  }
  const ChargeView charges{x, y, w, h};
  const std::size_t dim = BinGrid::chooseResolution(nVars);
  ElectroDensity density(db.region, dim, dim, db.targetDensity);
  density.stampFixed(db);
  WlEvaluator wlEval(db, objToVar, nVars);
  const VarView view{&db, objToVar, x, y};
  const double gamma = waGammaSchedule(db.region.width() /
                                           static_cast<double>(dim), 0.5);
  std::vector<double> gx(nVars), gy(nVars);

  // view_gather sweeps the SoA geometry arrays the way the GP engine seeds
  // its variable vector: movable centers gathered through the remap.
  db.view().syncPositionsFromDb(db);
  const PlacementView& pv = db.view();
  const auto vMov = pv.movable();
  const auto vLx = pv.lx();
  const auto vLy = pv.ly();
  const auto vW = pv.w();
  const auto vH = pv.h();

  // --kernel-record: spectral-core wall gate mode. The 1-thread median of
  // the two gated kernels is written as RunRecord stage wallMs (ns / 1e6),
  // then the process exits; the CI regression lane runs this three times
  // and eplace_regress gates the median against the committed
  // tests/baselines/kernel_hotpaths.json (--min-wall-ms 0 because these
  // rows are sub-millisecond, --wall-band sized for cross-machine noise).
  RunRecord krec;
  krec.name = "kernel_hotpaths";
  krec.fingerprint = netlistFingerprint(db);
  krec.seed = spec.seed;
  krec.threads = 1;

  JsonValue kernels = JsonValue::array();
  for (const int nt : threadCounts) {
    ThreadPool pool(nt);
    ThreadPool* p = &pool;
    auto kernel = [&](const std::string& name, bool gated, const auto& fn) {
      JsonValue row = timedRow(name, nt, kernelReps, 0, fn);
      const double medianNs = row.getNumber("median_ns");
      push(kernels, std::move(row));
      if (!gated || nt != 1) return;
      StageRecord s;
      s.stage = "kernel." + name;
      s.ran = true;
      s.wallMs = medianNs / 1e6;
      s.iterations = kernelReps;
      krec.stages.push_back(s);
    };
    kernel("density_update", true, [&] { density.update(charges, p); });
    kernel("density_gradient", false,
           [&] { density.gradient(charges, gx, gy, p); });
    kernel("wa_gradient", true,
           [&] { wlEval.waGrad(view, gamma, gamma, gx, gy, p); });
    kernel("hpwl", false, [&] { wlEval.hpwl(view, p); });
    kernel("view_gather", false, [&] {
      pool.parallelFor(nVars, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const auto obj = static_cast<std::size_t>(vMov[i]);
          gx[i] = vLx[obj] + vW[obj] * 0.5;
          gy[i] = vLy[obj] + vH[obj] * 0.5;
        }
      });
    });
  }

  if (!kernelRecordPath.empty()) {
    const Status wr = writeRunRecordFile(kernelRecordPath, krec);
    if (!wr.ok()) {
      std::fprintf(stderr, "kernel record write failed: %s\n",
                   wr.toString().c_str());
      return 2;
    }
    std::printf("wrote kernel record %s\n", kernelRecordPath.c_str());
    return 0;
  }

  // --- pool dispatch: one parallelFor on a warm pool ------------------------
  // Back-to-back calls, as in a GP iteration; the body is a light axpy so
  // the rows show what a dispatch adds to cheap loops. The idle rows wait
  // 2 ms before each call, so the workers have parked: their cost is the
  // wake-up the spin phase exists to avoid, and the pool's spin budget is
  // sized against it (docs/PERFORMANCE.md).
  JsonValue dispatch = JsonValue::array();
  for (const int nt : threadCounts) {
    ThreadPool pool(nt);
    auto dispatchRow = [&](std::size_t n, int idleUs, int calls) {
      std::vector<double> dx(n, 1.0), dy(n, 0.5);
      JsonValue row = timedRow("pool_dispatch", nt, calls, idleUs, [&] {
        pool.parallelFor(n, [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) dy[i] = 0.999 * dy[i] + dx[i];
        });
      });
      row.set("n", JsonValue::number(static_cast<double>(n)));
      row.set("idle_us", JsonValue::number(idleUs));
      push(dispatch, std::move(row));
    };
    for (const std::size_t n : {2048u, 16384u, 65536u}) {
      dispatchRow(n, 0, smoke ? 50 : 2000);
    }
    dispatchRow(16384, 2000, smoke ? 5 : 200);
  }

  // --- planned-transform sweep: 2-D DCT per solver grid size ----------------
  // One row per SpectralPlan size the Poisson solver can plan (the bin grid
  // resolutions), serial, measuring the full separable 2-D analysis. The
  // allocs_per_op column proves the plan + workspace are warm-up-only.
  JsonValue sweep = JsonValue::array();
  for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    if (smoke && n > 128) break;
    SpectralPlan plan(n);
    std::vector<double> tgrid(n * n);
    for (std::size_t b = 0; b < tgrid.size(); ++b) {
      tgrid[b] = 0.5 + 0.25 * static_cast<double>(b % 13) -
                 0.125 * static_cast<double>(b % 5);
    }
    Spectral2dWorkspace tws;
    const int calls =
        smoke ? 1
              : static_cast<int>(std::max<std::size_t>(
                    9, (std::size_t{256} * 256 * 8) / (n * n)));
    JsonValue row = timedRow("dct2d_" + std::to_string(n), 1, calls, 0, [&] {
      spectral2d(tgrid, n, n, plan, plan, TrigOp::kDct2, TrigOp::kDct2,
                 nullptr, &tws);
    });
    row.set("grid", JsonValue::number(static_cast<double>(n)));
    push(sweep, std::move(row));
  }

  // --- emit JSON (shared jsonlite writer: escaping and NaN/Inf handling
  // live in one place, and the output is parseable by the same codec the
  // regression tooling uses) -------------------------------------------------
  JsonValue root = JsonValue::object();
  root.set("smoke", JsonValue::boolean(smoke));
  root.set("hw_concurrency",
           JsonValue::number(std::thread::hardware_concurrency()));
  {
    // Toolchain/ISA provenance: ns/op rows are only comparable between runs
    // built with the same compiler and vector ISA, so record both.
    JsonValue tc = JsonValue::object();
#if defined(__VERSION__)
    tc.set("compiler", JsonValue::str(__VERSION__));
#else
    tc.set("compiler", JsonValue::str("unknown"));
#endif
#if defined(__AVX512F__)
    tc.set("isa", JsonValue::str("avx512f"));
    tc.set("vector_bytes", JsonValue::number(64));
#elif defined(__AVX2__)
    tc.set("isa", JsonValue::str("avx2"));
    tc.set("vector_bytes", JsonValue::number(32));
#elif defined(__AVX__)
    tc.set("isa", JsonValue::str("avx"));
    tc.set("vector_bytes", JsonValue::number(32));
#elif defined(__SSE2__) || defined(__x86_64__)
    tc.set("isa", JsonValue::str("sse2"));
    tc.set("vector_bytes", JsonValue::number(16));
#elif defined(__ARM_NEON)
    tc.set("isa", JsonValue::str("neon"));
    tc.set("vector_bytes", JsonValue::number(16));
#else
    tc.set("isa", JsonValue::str("scalar"));
    tc.set("vector_bytes", JsonValue::number(8));
#endif
#if defined(EP_MARCH)
    tc.set("march", JsonValue::str(EP_MARCH));
#else
    tc.set("march", JsonValue::str("default"));
#endif
    root.set("toolchain", std::move(tc));
  }
  root.set("cells", JsonValue::number(static_cast<double>(nVars)));
  root.set("grid", JsonValue::number(static_cast<double>(dim)));
  root.set("kernels", std::move(kernels));
  root.set("pool_dispatch", std::move(dispatch));
  root.set("transform_sweep", std::move(sweep));
  // Steady-state contract: every timed row must run allocation-free after
  // its warm-up call (the Nesterov inner loop is exactly these kernels and
  // dispatches plus element-wise vector updates).
  root.set("steady_state_kernel_allocs", JsonValue::number(steadyAllocs));
  const Status benchWr =
      io::writeFileDurably("BENCH_hotpaths.json", writeJson(root) + "\n");
  if (!benchWr.ok()) {
    std::fprintf(stderr, "cannot write BENCH_hotpaths.json: %s\n",
                 benchWr.toString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_hotpaths.json (steady_state_kernel_allocs=%.2f)\n",
              steadyAllocs);
  return steadyAllocs == 0.0 ? 0 : 1;
}
