// Hot-path scaling benchmark: per-kernel ns/op and end-to-end mGP/cGP wall
// time at 1, 2 and 4 worker threads. Emits BENCH_hotpaths.json in the CWD.
//
//   bench_hotpaths [--smoke]
//
// --smoke shrinks the instance and runs each kernel once (the perf-smoke
// ctest entry uses it as a does-it-run gate, not a measurement).
//
// Reading the output (docs/PERFORMANCE.md has the full guide):
//  * "hw_concurrency" is the machine's core count. Speedups only manifest
//    when it exceeds the thread count — on a 1-core container every
//    configuration runs the same work sequentially, so ns/op is flat there
//    by construction, not by defect.
//  * "kernels": per-kernel mean ns per call at each thread count.
//  * "pool_dispatch": median (and p90) ns of one ThreadPool::parallelFor
//    over an n-element axpy at each thread count, from back-to-back calls
//    each timed on its own — the fixed cost every parallel kernel pays —
//    plus an idle_us = 2000 row per thread count: a call to parked workers.
//  * "end_to_end": mGP/cGP stage seconds per thread count on the same
//    instance, plus the final HPWL bits so identical results are checkable.
//  * "bit_identical": true iff every thread count produced bit-identical
//    final HPWL — the determinism contract, asserted here on real runs.
//  * "batch_2x": two concurrent placer sessions (4 threads split between
//    them) against the same two jobs run back-to-back; wall seconds,
//    speedup, and whether both orders were bit-identical per design.
//  * "serve_roundtrip": eplace_serve daemon overhead — ping round-trip ns
//    over the AF_UNIX socket and submit->wait seconds on a tiny job.
//  * "budget_overhead": the hottest kernels re-timed with a MemoryBudget
//    attached — budgets charge only on arena growth (warm-up), so the
//    steady-state deltas must be noise and bytes_charged_steady_state 0.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <filesystem>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <bit>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "bookshelf/bookshelf.h"
#include "density/electro.h"
#include "eplace/flow.h"
#include "fft/plan.h"
#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "qp/initial_place.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "model/netlist.h"
#include "model/placement_view.h"
#include "util/context.h"
#include "util/io.h"
#include "util/jsonlite.h"
#include "util/memory_budget.h"
#include "util/parallel.h"
#include "util/run_record.h"
#include "util/timer.h"
#include "wirelength/wl.h"

// --- allocation counter (this binary only) ----------------------------------
// Replacing the global operator new lets the bench attribute heap traffic to
// each kernel and flow stage: after arena warm-up the steady-state Nesterov
// inner loop must allocate nothing, and the JSON below records the proof.
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

struct KernelRow {
  std::string name;
  int threads;
  double nsPerOp;
  double allocsPerOp;  // steady-state heap allocations per call
};

struct EndToEndRow {
  int threads;
  double mgpSeconds;
  double cgpSeconds;
  double finalHpwl;
  std::uint64_t flowAllocs;  // allocations across the whole mGP+mLG+cGP run
};

double timeNs(int reps, const auto& fn) {
  Timer t;
  for (int r = 0; r < reps; ++r) fn();
  return t.seconds() * 1e9 / static_cast<double>(reps);
}

/// Time a kernel and count its steady-state allocations: one untimed
/// warm-up call lets scratch arenas grow, then the timed reps must run
/// allocation-free for the zero-steady-state-alloc contract to hold.
KernelRow measure(const char* name, int threads, int reps, const auto& fn) {
  fn();  // warm-up (arena growth happens here, not in the timed region)
  const std::uint64_t a0 = allocCount();
  const double ns = timeNs(reps, fn);
  const std::uint64_t a1 = allocCount();
  return {name, threads, ns,
          static_cast<double>(a1 - a0) / static_cast<double>(reps)};
}

}  // namespace

int main(int argc, char** argv) {
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

  // --- per-kernel timings on a fixed mid-GP-like state ----------------------
  GenSpec spec;
  spec.name = "hotpaths";
  spec.numCells = cells;
  spec.seed = 42;
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db);

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

  std::vector<KernelRow> kernels;
  for (const int nt : threadCounts) {
    ThreadPool pool(nt);
    ThreadPool* p = &pool;
    kernels.push_back(measure("density_update", nt, kernelReps, [&] {
      density.update(charges, p);
    }));
    kernels.push_back(measure("density_gradient", nt, kernelReps, [&] {
      density.gradient(charges, gx, gy, p);
    }));
    kernels.push_back(measure("wa_gradient", nt, kernelReps, [&] {
      wlEval.waGrad(view, gamma, gamma, gx, gy, p);
    }));
    kernels.push_back(measure("hpwl", nt, kernelReps, [&] {
      wlEval.hpwl(view, p);
    }));
    kernels.push_back(measure("view_gather", nt, kernelReps, [&] {
      pool.parallelFor(nVars, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const auto obj = static_cast<std::size_t>(vMov[i]);
          gx[i] = vLx[obj] + vW[obj] * 0.5;
          gy[i] = vLy[obj] + vH[obj] * 0.5;
        }
      });
    }));
    std::printf("threads=%d done (%zu cells, grid %zu^2)\n", nt, nVars, dim);
  }

  // --kernel-record: spectral-core wall gate mode. The 1-thread ns/op of
  // the two gated kernels is written as RunRecord stage wallMs (ns/op /
  // 1e6), then the process exits; the CI regression lane runs this three
  // times and eplace_regress gates the median against the committed
  // tests/baselines/kernel_hotpaths.json (--min-wall-ms 0 because these
  // rows are sub-millisecond, --wall-band sized for cross-machine noise).
  if (!kernelRecordPath.empty()) {
    RunRecord krec;
    krec.name = "kernel_hotpaths";
    krec.fingerprint = netlistFingerprint(db);
    krec.seed = spec.seed;
    krec.threads = 1;
    for (const auto& k : kernels) {
      if (k.threads != 1) continue;
      if (k.name != "density_update" && k.name != "wa_gradient") continue;
      StageRecord s;
      s.stage = "kernel." + k.name;
      s.ran = true;
      s.wallMs = k.nsPerOp / 1e6;
      s.iterations = kernelReps;
      krec.stages.push_back(s);
    }
    const Status wr = writeRunRecordFile(kernelRecordPath, krec);
    if (!wr.ok()) {
      std::fprintf(stderr, "kernel record write failed: %s\n",
                   wr.toString().c_str());
      return 2;
    }
    std::printf("wrote kernel record %s\n", kernelRecordPath.c_str());
    return 0;
  }

  // --- pool dispatch: one parallelFor, timed call by call --------------------
  // Back-to-back calls on a warm pool, as in a GP iteration; the body is a
  // light axpy so the rows show what a dispatch adds to cheap loops. The
  // idle rows wait 2 ms before each call, so the workers have parked: their
  // cost is the wake-up the spin phase exists to avoid, and the pool's
  // spin budget is sized against it (docs/PERFORMANCE.md).
  struct DispatchRow {
    std::size_t n;
    int threads;
    int idleUs;
    double p50Ns;
    double p90Ns;
    int calls;
  };
  std::vector<DispatchRow> dispatchRows;
  {
    auto dispatchRow = [&](ThreadPool& pool, std::size_t n, int idleUs,
                           int calls) {
      std::vector<double> dx(n, 1.0), dy(n, 0.5);
      auto body = [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) dy[i] = 0.999 * dy[i] + dx[i];
      };
      for (int c = 0; c < calls / 10; ++c) pool.parallelFor(n, body);
      std::vector<double> ns(static_cast<std::size_t>(calls));
      for (auto& t : ns) {
        Timer idle;
        while (idle.seconds() * 1e6 < idleUs) {
        }
        Timer ct;
        pool.parallelFor(n, body);
        t = ct.seconds() * 1e9;
      }
      std::sort(ns.begin(), ns.end());
      const DispatchRow row{n, pool.threads(), idleUs, ns[ns.size() / 2],
                            ns[ns.size() * 9 / 10], calls};
      std::printf("pool_dispatch n=%zu threads=%d idle=%dus: p50 %.0f ns, "
                  "p90 %.0f ns (%d calls)\n",
                  row.n, row.threads, row.idleUs, row.p50Ns, row.p90Ns,
                  row.calls);
      return row;
    };
    for (const int nt : threadCounts) {
      ThreadPool pool(nt);
      for (const std::size_t n : {2048u, 16384u, 65536u}) {
        dispatchRows.push_back(dispatchRow(pool, n, 0, smoke ? 50 : 2000));
      }
      dispatchRows.push_back(dispatchRow(pool, 16384, 2000, smoke ? 5 : 200));
    }
  }

  // --- planned-transform sweep: 2-D DCT ns/op per solver grid size ----------
  // One row per SpectralPlan size the Poisson solver can plan (the bin grid
  // resolutions), serial, measuring the full separable 2-D analysis. The
  // allocs/op column proves the plan + workspace are warm-up-only.
  struct SweepRow {
    std::size_t n;
    double nsPerOp;
    double allocsPerOp;
  };
  std::vector<SweepRow> sweepRows;
  for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    if (smoke && n > 128) break;
    SpectralPlan plan(n);
    std::vector<double> tgrid(n * n);
    for (std::size_t b = 0; b < tgrid.size(); ++b) {
      tgrid[b] = 0.5 + 0.25 * static_cast<double>(b % 13) -
                 0.125 * static_cast<double>(b % 5);
    }
    Spectral2dWorkspace tws;
    const int reps =
        smoke ? 1
              : static_cast<int>(std::max<std::size_t>(
                    2, (std::size_t{256} * 256 * 8) / (n * n)));
    const KernelRow row =
        measure(("dct2d_" + std::to_string(n)).c_str(), 1, reps, [&] {
          spectral2d(tgrid, n, n, plan, plan, TrigOp::kDct2, TrigOp::kDct2,
                     nullptr, &tws);
        });
    sweepRows.push_back({n, row.nsPerOp, row.allocsPerOp});
    std::printf("dct2d_%zu: %.1f ns/op, %.2f allocs/op\n", n, row.nsPerOp,
                row.allocsPerOp);
  }

  // --- budget overhead: the same hot kernels with governance armed ----------
  // MemoryBudget charges happen only on arena growth (one relaxed atomic
  // per growth event) and growth only happens at warm-up, so the
  // steady-state delta must be noise. These rows are the recorded proof:
  // ns/op budgeted vs unbudgeted for the two hottest kernels, plus the
  // arena borrow itself, plus the number of bytes charged inside the timed
  // region (must be 0).
  KernelRow densityBudgeted{}, waBudgeted{};
  double arenaPlainNs = 0.0, arenaBudgetNs = 0.0;
  std::uint64_t budgetTimedDelta = 0;
  {
    MemoryBudget benchBudget;
    benchBudget.setLimit(std::size_t{4} << 30);  // generous: never breaches
    ScratchArena& arena = db.view().arena();
    ThreadPool pool(1);
    ThreadPool* p = &pool;
    const int borrowReps = smoke ? 10 : 20000;
    (void)arena.doubles("bench.buf", nVars);  // warm-up growth
    arenaPlainNs =
        timeNs(borrowReps, [&] { (void)arena.doubles("bench.buf", nVars); });
    arena.setBudget(&benchBudget);
    arenaBudgetNs =
        timeNs(borrowReps, [&] { (void)arena.doubles("bench.buf", nVars); });
    const std::uint64_t used0 = benchBudget.usedBytes();
    densityBudgeted = measure("density_update_budgeted", 1, kernelReps,
                              [&] { density.update(charges, p); });
    waBudgeted = measure("wa_gradient_budgeted", 1, kernelReps, [&] {
      wlEval.waGrad(view, gamma, gamma, gx, gy, p);
    });
    budgetTimedDelta = benchBudget.usedBytes() - used0;
    arena.setBudget(nullptr);
    std::printf("budget overhead: density %.1f ns, wa %.1f ns, arena "
                "%.1f->%.1f ns, %" PRIu64 " bytes charged steady-state\n",
                densityBudgeted.nsPerOp, waBudgeted.nsPerOp, arenaPlainNs,
                arenaBudgetNs, budgetTimedDelta);
  }

  // --- end-to-end mGP + cGP on a mixed-size instance ------------------------
  GenSpec flowSpec;
  flowSpec.name = "hotpaths_flow";
  flowSpec.numCells = smoke ? 200 : 1500;
  flowSpec.numMovableMacros = 4;
  flowSpec.seed = 43;
  std::vector<EndToEndRow> endToEnd;
  bool bitIdentical = true;
  FlowConfig flowCfg;
  flowCfg.runDetail = false;
  if (smoke) flowCfg.gp.maxIterations = 1;  // does-it-run gate only
  if (smoke) flowCfg.gp.minIterations = 0;
  std::filesystem::create_directories("bench_results");
  for (const int nt : threadCounts) {
    RuntimeContext ctx(nt);
    PlacementDB run = generateCircuit(flowSpec);
    const std::uint64_t a0 = allocCount();
    const FlowResult res =
        *runSupervisedFlow(run, flowCfg, plainPolicy(), nullptr, &ctx);
    const std::uint64_t flowAllocs = allocCount() - a0;
    // Accumulate a structured run record per thread count so regression
    // tooling can diff bench runs the same way it diffs CLI/serve runs.
    const RunRecord rec = buildRunRecord(run, res, nullptr, &ctx, false);
    const Status recWr = writeRunRecordFile(
        "bench_results/hotpaths_flow_t" + std::to_string(nt) + ".json", rec);
    if (!recWr.ok()) {
      std::fprintf(stderr, "record write failed: %s\n",
                   recWr.toString().c_str());
    }
    endToEnd.push_back(
        {nt, res.mgp.seconds, res.cgp.seconds, res.finalHpwl, flowAllocs});
    if (std::bit_cast<std::uint64_t>(res.finalHpwl) !=
        std::bit_cast<std::uint64_t>(endToEnd.front().finalHpwl)) {
      bitIdentical = false;
    }
    std::printf("end-to-end threads=%d: mGP %.2fs, cGP %.2fs, HPWL %.6g, "
                "%" PRIu64 " allocs\n",
                nt, res.mgp.seconds, res.cgp.seconds, res.finalHpwl,
                flowAllocs);
  }

  // --- batch: 2 concurrent sessions vs the same 2 jobs sequentially ---------
  namespace fs = std::filesystem;
  const fs::path batchDir = fs::temp_directory_path() / "bench_hotpaths_batch";
  fs::remove_all(batchDir);
  fs::create_directories(batchDir);
  double batchSeqSeconds = 0.0;
  double batchConcSeconds = 0.0;
  bool batchIdentical = true;
  {
    const PlacementDB gen = generateCircuit(flowSpec);
    if (!writeBookshelf(batchDir.string(), "hotpaths_flow", gen).ok()) {
      std::fprintf(stderr, "cannot stage batch instance; batch row is 0s\n");
    } else {
      const std::string aux = (batchDir / "hotpaths_flow.aux").string();
      const std::vector<BatchItem> items{{aux, "batch_a"}, {aux, "batch_b"}};
      BatchOptions conc;
      conc.maxConcurrentSessions = 2;
      conc.totalThreads = 4;  // 2 worker threads per in-flight session
      conc.session.flow = flowCfg;
      BatchOptions seq = conc;  // same jobs, same total budget, one at a time
      seq.maxConcurrentSessions = 1;
      const BatchResult sr = runPlacerBatch(items, seq);
      const BatchResult cr = runPlacerBatch(items, conc);
      batchSeqSeconds = sr.totalSeconds;
      batchConcSeconds = cr.totalSeconds;
      batchIdentical = sr.allOk() && cr.allOk();
      for (std::size_t i = 0; batchIdentical && i < items.size(); ++i) {
        batchIdentical =
            std::bit_cast<std::uint64_t>(sr.items[i].flow.finalHpwl) ==
            std::bit_cast<std::uint64_t>(cr.items[i].flow.finalHpwl);
      }
      std::printf("batch 2x: sequential %.2fs, concurrent %.2fs, "
                  "identical=%s\n",
                  batchSeqSeconds, batchConcSeconds,
                  batchIdentical ? "true" : "false");
    }
  }
  fs::remove_all(batchDir);

  // --- serve round-trip: protocol overhead of the placement daemon ----------
  // ping ns = pure wire + dispatch cost; seconds_per_job = submit->wait on a
  // tiny job, i.e. what the daemon adds around the placement itself.
  double servePingNs = 0.0;
  double serveSecondsPerJob = 0.0;
  bool serveOk = true;
  {
    const fs::path serveRoot = fs::temp_directory_path() / "bench_serve";
    fs::remove_all(serveRoot);
    serve::ServeOptions sopt;
    sopt.socketPath =
        (fs::temp_directory_path() / "bench_serve.sock").string();
    sopt.root = serveRoot.string();
    sopt.workers = 1;
    sopt.logLevel = LogLevel::kOff;
    fs::remove(sopt.socketPath);
    serve::ServeDaemon daemon(sopt);
    if (!daemon.start().ok()) {
      std::fprintf(stderr, "serve daemon failed to start; serve row is 0\n");
      serveOk = false;
    } else {
      serve::ServeClient client;
      serveOk = client.connect(sopt.socketPath).ok();
      if (serveOk) {
        const int pings = smoke ? 50 : 2000;
        (void)client.ping();  // warm-up
        servePingNs = timeNs(pings, [&] { (void)client.ping(); });
        const int jobs = smoke ? 1 : 4;
        serve::JobSpec tiny;
        tiny.name = "bench_tiny";
        tiny.hasGen = true;
        tiny.gen.numCells = smoke ? 120 : 300;
        tiny.gen.seed = 7;
        tiny.gpMaxIterations = smoke ? 1 : 30;
        tiny.runDetail = false;
        Timer jt;
        for (int j = 0; j < jobs && serveOk; ++j) {
          auto id = client.submit(tiny);
          serveOk = id.ok() && client.wait(*id, 300.0).ok();
        }
        serveSecondsPerJob = jt.seconds() / jobs;
        std::printf("serve: ping %.0f ns, %.3f s/job (%d tiny jobs)%s\n",
                    servePingNs, serveSecondsPerJob, jobs,
                    serveOk ? "" : " [FAILED]");
      }
      daemon.requestShutdown();
      daemon.wait();
    }
    fs::remove_all(serveRoot);
    fs::remove(sopt.socketPath);
  }

  // --- scale sweep: flat vs multilevel supervised flow, 1k -> 100k ----------
  // The rows behind docs/SCALING.md: wall seconds and accounted peak bytes
  // per cell count for the flat mGP path and the multilevel V-cycle. A
  // fresh RuntimeContext per run keeps the MemoryBudget peak per-run (RSS
  // is process-cumulative and useless here). At 1k the ladder does not
  // engage (minMovable floor), so that row doubles as an overhead check.
  struct ScaleRow {
    std::size_t cells;
    double seconds[2];           // [flat, multilevel]
    std::uint64_t peakBytes[2];
    double hpwl[2];
    std::size_t levels[2];
  };
  std::vector<ScaleRow> scaleRows;
  {
    const std::vector<const char*> sweep =
        smoke ? std::vector<const char*>{"scale_1k"}
              : std::vector<const char*>{"scale_1k", "scale_10k",
                                         "scale_100k"};
    for (const char* name : sweep) {
      const GenSpec sspec = suiteSpec(name);
      ScaleRow row{};
      row.cells = sspec.numCells;
      for (int ml = 0; ml < 2; ++ml) {
        RuntimeContext ctx(4);
        PlacementDB run = generateCircuit(sspec);
        SupervisorConfig sup;
        sup.multilevel.enabled = ml == 1;
        sup.multilevel.minMovable = 5000;
        FlowConfig scfg;
        if (smoke) {
          scfg.gp.maxIterations = 1;
          scfg.gp.minIterations = 0;
          scfg.runDetail = false;
        }
        Timer st;
        const auto res = runSupervisedFlow(run, scfg, sup, nullptr, &ctx);
        row.seconds[ml] = st.seconds();
        row.peakBytes[ml] = ctx.memory().peakBytes();
        if (res.ok()) {
          row.hpwl[ml] = res->finalHpwl;
          row.levels[ml] = res->mgpLevels.size();
          const RunRecord rec = buildRunRecord(run, *res, nullptr, &ctx);
          const Status wr = writeRunRecordFile(
              std::string("bench_results/hotpaths_scale_") +
                  std::to_string(row.cells) + (ml ? "_ml" : "_flat") +
                  ".json",
              rec);
          if (!wr.ok()) {
            std::fprintf(stderr, "record write failed: %s\n",
                         wr.toString().c_str());
          }
        } else {
          std::fprintf(stderr, "%s %s failed: %s\n", name,
                       ml ? "multilevel" : "flat",
                       res.status().toString().c_str());
        }
        std::printf("scale %zu cells %s: %.1fs, %.0f MiB accounted, "
                    "%zu coarse levels\n",
                    row.cells, ml ? "multilevel" : "flat", row.seconds[ml],
                    static_cast<double>(row.peakBytes[ml]) / (1 << 20),
                    row.levels[ml]);
      }
      scaleRows.push_back(row);
    }
  }
  // Retention: bench runs accumulate one record per thread count plus two
  // per sweep size; rotate oldest-first (lexicographic names) past 32.
  pruneRecordFiles("bench_results", "hotpaths", 32);

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
  {
    JsonValue arr = JsonValue::array();
    for (const auto& k : kernels) {
      JsonValue row = JsonValue::object();
      row.set("name", JsonValue::str(k.name));
      row.set("threads", JsonValue::number(k.threads));
      row.set("ns_per_op", JsonValue::number(k.nsPerOp));
      row.set("allocs_per_op", JsonValue::number(k.allocsPerOp));
      arr.push(std::move(row));
    }
    root.set("kernels", std::move(arr));
  }
  {
    JsonValue arr = JsonValue::array();
    for (const auto& r : dispatchRows) {
      JsonValue row = JsonValue::object();
      row.set("name", JsonValue::str("pool_dispatch"));
      row.set("n", JsonValue::number(static_cast<double>(r.n)));
      row.set("threads", JsonValue::number(r.threads));
      row.set("idle_us", JsonValue::number(r.idleUs));
      row.set("median_ns", JsonValue::number(r.p50Ns));
      row.set("p90_ns", JsonValue::number(r.p90Ns));
      row.set("calls", JsonValue::number(r.calls));
      arr.push(std::move(row));
    }
    root.set("pool_dispatch", std::move(arr));
  }
  {
    JsonValue arr = JsonValue::array();
    for (const auto& r : sweepRows) {
      JsonValue row = JsonValue::object();
      row.set("name", JsonValue::str("dct2d_" + std::to_string(r.n)));
      row.set("grid", JsonValue::number(static_cast<double>(r.n)));
      row.set("ns_per_op", JsonValue::number(r.nsPerOp));
      row.set("allocs_per_op", JsonValue::number(r.allocsPerOp));
      arr.push(std::move(row));
    }
    root.set("transform_sweep", std::move(arr));
  }
  {
    JsonValue arr = JsonValue::array();
    for (const auto& e : endToEnd) {
      JsonValue row = JsonValue::object();
      row.set("threads", JsonValue::number(e.threads));
      row.set("mgp_seconds", JsonValue::number(e.mgpSeconds));
      row.set("cgp_seconds", JsonValue::number(e.cgpSeconds));
      row.set("final_hpwl", JsonValue::number(e.finalHpwl));
      row.set("flow_allocs",
              JsonValue::number(static_cast<double>(e.flowAllocs)));
      arr.push(std::move(row));
    }
    root.set("end_to_end", std::move(arr));
  }
  {
    JsonValue b = JsonValue::object();
    b.set("sessions", JsonValue::number(2));
    b.set("total_threads", JsonValue::number(4));
    b.set("sequential_seconds", JsonValue::number(batchSeqSeconds));
    b.set("concurrent_seconds", JsonValue::number(batchConcSeconds));
    b.set("speedup",
          JsonValue::number(batchConcSeconds > 0.0
                                ? batchSeqSeconds / batchConcSeconds
                                : 0.0));
    b.set("bit_identical", JsonValue::boolean(batchIdentical));
    root.set("batch_2x", std::move(b));
  }
  {
    JsonValue s = JsonValue::object();
    s.set("ping_ns", JsonValue::number(servePingNs));
    s.set("seconds_per_job", JsonValue::number(serveSecondsPerJob));
    s.set("ok", JsonValue::boolean(serveOk));
    root.set("serve_roundtrip", std::move(s));
  }
  {
    JsonValue secs = JsonValue::array();
    JsonValue rss = JsonValue::array();
    for (const auto& r : scaleRows) {
      JsonValue srow = JsonValue::object();
      srow.set("cells", JsonValue::number(static_cast<double>(r.cells)));
      srow.set("flat_seconds", JsonValue::number(r.seconds[0]));
      srow.set("multilevel_seconds", JsonValue::number(r.seconds[1]));
      srow.set("multilevel_levels",
               JsonValue::number(static_cast<double>(r.levels[1])));
      secs.push(std::move(srow));
      JsonValue rrow = JsonValue::object();
      rrow.set("cells", JsonValue::number(static_cast<double>(r.cells)));
      rrow.set("flat_peak_bytes",
               JsonValue::number(static_cast<double>(r.peakBytes[0])));
      rrow.set("multilevel_peak_bytes",
               JsonValue::number(static_cast<double>(r.peakBytes[1])));
      rss.push(std::move(rrow));
    }
    root.set("cells_vs_seconds", std::move(secs));
    root.set("cells_vs_peak_rss", std::move(rss));
  }
  {
    // Baselines for the overhead ratio: the unbudgeted 1-thread rows of
    // the same kernels, measured above.
    double densityPlain = 0.0, waPlain = 0.0;
    for (const auto& k : kernels) {
      if (k.threads != 1) continue;
      if (k.name == "density_update") densityPlain = k.nsPerOp;
      if (k.name == "wa_gradient") waPlain = k.nsPerOp;
    }
    JsonValue b = JsonValue::object();
    b.set("density_update_ns", JsonValue::number(densityPlain));
    b.set("density_update_budgeted_ns",
          JsonValue::number(densityBudgeted.nsPerOp));
    b.set("wa_gradient_ns", JsonValue::number(waPlain));
    b.set("wa_gradient_budgeted_ns", JsonValue::number(waBudgeted.nsPerOp));
    b.set("arena_borrow_ns", JsonValue::number(arenaPlainNs));
    b.set("arena_borrow_budgeted_ns", JsonValue::number(arenaBudgetNs));
    b.set("budgeted_allocs_per_op",
          JsonValue::number(densityBudgeted.allocsPerOp +
                            waBudgeted.allocsPerOp));
    b.set("bytes_charged_steady_state",
          JsonValue::number(static_cast<double>(budgetTimedDelta)));
    root.set("budget_overhead", std::move(b));
  }
  // Steady-state contract: every timed kernel must run allocation-free
  // after its warm-up call (the Nesterov inner loop is exactly these
  // kernels plus element-wise vector updates).
  double steadyAllocs = 0.0;
  for (const auto& k : kernels) steadyAllocs += k.allocsPerOp;
  root.set("steady_state_kernel_allocs", JsonValue::number(steadyAllocs));
  root.set("bit_identical", JsonValue::boolean(bitIdentical));
  const Status benchWr =
      io::writeFileDurably("BENCH_hotpaths.json", writeJson(root) + "\n");
  if (!benchWr.ok()) {
    std::fprintf(stderr, "cannot write BENCH_hotpaths.json: %s\n",
                 benchWr.toString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_hotpaths.json (bit_identical=%s, batch=%s, "
              "serve=%s)\n",
              bitIdentical ? "true" : "false",
              batchIdentical ? "true" : "false", serveOk ? "true" : "false");
  return bitIdentical && batchIdentical && serveOk ? 0 : 1;
}
