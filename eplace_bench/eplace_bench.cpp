// eplace_bench — the repository benchmark: end-to-end and per-layer metrics
// of the placer on four seeded workloads. README.md in this directory gives
// the workloads, the metrics, their bounds and how to compare two commits.
//
//   eplace_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed and written as Bookshelf files under
// .bench_work/; the placer sees only those files. The benchmark drives the
// placer through its public entry points (PlacerSession, ServeDaemon +
// ServeClient, the flowStage* functions, buildClusterLadder, ElectroDensity,
// PoissonSolver, WlEvaluator) and times every call from outside.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// with spans recorded around those calls, kept in memory and written at exit
// as Chrome trace-event JSON, and reports the per-layer metrics. Each metric
// is printed as "workload metric value unit"; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every correctness check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bookshelf/bookshelf.h"
#include "cluster/cluster.h"
#include "density/electro.h"
#include "eplace/flow.h"
#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "fft/poisson.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/io.h"
#include "util/jsonlite.h"
#include "util/run_record.h"
#include "util/timer.h"
#include "wirelength/wl.h"

// --- allocation counter (this binary only) ----------------------------------
// Replacing the global operator new attributes heap traffic to each
// placement and kernel call: mem.flow_allocs per placement, and the
// zero-steady-state-allocation contract of the GP kernels.
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t sz) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
// Not inlined: GCC would otherwise see free() paired with operator new at
// every inlined call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace ep;
namespace fs = std::filesystem;

std::uint64_t allocCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}

/// Seconds on one steady clock shared by every span and sample.
double nowS() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

/// Linear-interpolated quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Worker threads of the flow workloads: 4, or the core count if lower.
int flowThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

// --- metrics -----------------------------------------------------------------
// The names and units below are the contract with BENCHMARK.json; run.py
// refuses a result whose metric set differs from the file.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"hpwl", "dbu"},
};

// Span layers: every span belongs to one, and a layer's self time is the
// part of its spans' time not covered by their child spans.
enum Layer : int {
  kFlowOther,  // a placement's own time outside every stage span
  kMip,
  kMgp,
  kLevels,
  kMlg,
  kCgp,
  kCdp,
  kSubmit,
  kQueue,
  kRunOther,  // a serve job's run time outside its stage events
  kWire,      // a serve job's latency outside submit, queue and run
  kHarness,   // benchmark work, never part of an operation
  kLayerCount,
};

constexpr const char* kLayerShare[kHarness] = {
    "flow.other_share",  "qp.mip_share",       "eplace.mgp_share",
    "eplace.mgp_levels_share", "legal.mlg_share", "eplace.cgp_share",
    "legal.cdp_share",   "serve.submit_share", "serve.queue_share",
    "serve.run_other_share",   "serve.wire_share",
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.op_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
    {"flow.other_share", "ratio"},
    {"qp.mip_share", "ratio"},
    {"eplace.mgp_share", "ratio"},
    {"eplace.mgp_levels_share", "ratio"},
    {"legal.mlg_share", "ratio"},
    {"eplace.cgp_share", "ratio"},
    {"legal.cdp_share", "ratio"},
    {"cluster.ladder_share", "ratio"},
    {"cluster.levels", "count"},
    {"eplace.stage_attempts_extra", "count"},
    {"opt.mgp_iters", "count"},
    {"opt.cgp_iters", "count"},
    {"opt.evals_per_iter", "ratio"},
    {"opt.iter_ms_p50", "ms"},
    {"opt.iter_ms_p90", "ms"},
    {"density.grid_n", "count"},
    {"density.update_us.t1", "us"},
    {"density.update_us.t4", "us"},
    {"density.gather_us.t1", "us"},
    {"density.gather_us.t4", "us"},
    {"density.overflow_us.t1", "us"},
    {"density.overflow_us.t4", "us"},
    {"fft.solve_us.t1", "us"},
    {"fft.solve_us.t4", "us"},
    {"fft.bytes_per_solve", "B"},
    {"wirelength.wa_grad_us.t1", "us"},
    {"wirelength.wa_grad_us.t4", "us"},
    {"wirelength.hpwl_us.t1", "us"},
    {"wirelength.hpwl_us.t4", "us"},
    {"density.busy_s", "s"},
    {"fft.busy_s", "s"},
    {"wirelength.busy_s", "s"},
    {"threads.place_speedup", "ratio"},
    {"mem.accounted_peak_mib", "MiB"},
    {"mem.flow_allocs", "count"},
    {"mem.kernel_allocs_per_op", "count"},
    {"serve.jobs", "count"},
    {"serve.rejected", "count"},
    {"serve.tail_ratio", "ratio"},
    {"serve.snapshots_per_job", "count"},
    {"serve.submit_share", "ratio"},
    {"serve.queue_share", "ratio"},
    {"serve.run_other_share", "ratio"},
    {"serve.wire_share", "ratio"},
};

/// What one run produced: metric values by name, and its operations and
/// correctness checks counted against the failures among them.
struct Report {
  std::map<std::string, double> values;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string name;
  Layer layer = kHarness;
  int parent = -1;
  bool op = false;         // root span of one measured operation
  std::uint64_t job = 0;   // serve job id; 0 for flows
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store. Thread-safe: the serve clients record concurrently.
class Tracer {
 public:
  int add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(std::string name, Layer layer, int parent, bool op = false) {
    Span s;
    s.name = std::move(name);
    s.layer = layer;
    s.parent = parent;
    s.op = op;
    s.start = nowS();
    return add(std::move(s));
  }
  void close(int id) {
    const double t = nowS();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Self seconds per layer over every span inside a measured operation,
  /// and (via *opSeconds) the summed duration of those operations. Parents
  /// always precede their children in the store.
  std::array<double, kLayerCount> layerSelf(double* opSeconds) const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = spans_.size();
    std::vector<double> childSum(n, 0.0);
    std::vector<int> root(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0) {
        root[i] = static_cast<int>(i);
      } else {
        const auto p = static_cast<std::size_t>(s.parent);
        root[i] = root[p];
        childSum[p] += s.end - s.start;
      }
    }
    std::array<double, kLayerCount> self{};
    *opSeconds = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      if (!spans_[static_cast<std::size_t>(root[i])].op) continue;
      self[s.layer] += (s.end - s.start) - childSum[i];
      if (s.parent < 0) *opSeconds += s.end - s.start;
    }
    return self;
  }

  /// Durations (ms) of the GP iteration spans inside measured operations.
  std::vector<double> iterationMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    std::vector<bool> inOp(spans_.size(), false);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      inOp[i] = s.parent < 0 ? s.op : inOp[static_cast<std::size_t>(s.parent)];
      if (inOp[i] && s.name.ends_with(".iter")) {
        out.push_back((s.end - s.start) * 1e3);
      }
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Chrome trace-event JSON (complete "X" events, microseconds). Serve
  /// jobs get one row each, keyed by job id, so their spans nest per row.
  JsonValue chromeJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonValue events = JsonValue::array();
    for (const Span& s : spans_) {
      JsonValue e = JsonValue::object();
      e.set("name", JsonValue::str(s.name));
      e.set("cat", JsonValue::str(s.layer < kHarness ? kLayerShare[s.layer]
                                                      : "harness"));
      e.set("ph", JsonValue::str("X"));
      e.set("ts", JsonValue::number(s.start * 1e6));
      e.set("dur", JsonValue::number((s.end - s.start) * 1e6));
      e.set("pid", JsonValue::number(1));
      e.set("tid", JsonValue::number(static_cast<double>(s.job + 1)));
      if (s.job != 0) {
        JsonValue args = JsonValue::object();
        args.set("job", JsonValue::number(static_cast<double>(s.job)));
        e.set("args", std::move(args));
      }
      events.push(std::move(e));
    }
    JsonValue root = JsonValue::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", JsonValue::str("ms"));
    return root;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Layer stageLayer(const std::string& stage) {
  if (stage == "mIP") return kMip;
  if (stage.starts_with("mGP@")) return kLevels;
  if (stage == "mGP") return kMgp;
  if (stage == "mLG") return kMlg;
  if (stage == "cGP") return kCgp;
  if (stage == "cDP") return kCdp;
  return kFlowOther;
}

/// FlowConfig::gpTrace hook that turns the per-iteration callbacks into one
/// span per GP iteration under the current stage span. The first callback
/// of each GP run only anchors the clock: the time before it is engine
/// set-up and stays in the stage's self time.
struct IterationSpans {
  Tracer* tracer = nullptr;
  int parent = -1;  // current stage span, maintained by the caller
  std::string label;
  double anchor = 0.0;

  void operator()(const std::string& stage, const GpIterTrace& it) {
    const double t = nowS();
    if (stage == label && it.iter > 0) {
      Span s;
      s.name = stage + ".iter";
      s.layer = stageLayer(stage);
      s.parent = parent;
      s.start = anchor;
      s.end = t;
      tracer->add(std::move(s));
    }
    label = stage;
    anchor = t;
  }
};

// --- inputs ------------------------------------------------------------------

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
/// Designs one seed may draw; seeds never share a design below this count.
constexpr std::uint64_t kDesignsPerSeed = 64;

/// Design `index` of a run: the suite spec with its seed advanced by the
/// golden ratio, so seed 1 / index 0 reproduces the suite instance itself.
GenSpec seededSpec(GenSpec spec, std::uint64_t seed, std::size_t index) {
  spec.seed += kGolden * ((seed - 1) * kDesignsPerSeed + index);
  spec.name += "_" + std::to_string(index);
  return spec;
}

struct Design {
  std::string name;
  std::string aux;  // relative to the working directory
};

/// The run's scratch directory (.bench_work/<pid>), removed on exit.
class Workspace {
 public:
  Workspace() : dir_(".bench_work/" + std::to_string(::getpid())) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Workspace() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Generates the design and writes it as Bookshelf files.
  Design write(const GenSpec& spec) const {
    const PlacementDB db = generateCircuit(spec);
    const Status s = writeBookshelf(dir_, spec.name, db);
    if (!s.ok()) {
      throw std::runtime_error("cannot write input " + spec.name + ": " +
                               s.toString());
    }
    return {spec.name, dir_ + "/" + spec.name + ".aux"};
  }

 private:
  std::string dir_;
};

// --- flow operations ---------------------------------------------------------

/// One placement of one design, timed from outside.
struct FlowOp {
  double setupS = 0.0;  // PlacerSession construction + load()
  double placeS = 0.0;  // place(), or the stage calls of a traced placement
  bool ok = false;
  std::string error;
  double hpwl = 0.0;
  double gradEvals = 0.0;
  double gpIterations = 0.0;
  double levels = 0.0;
  double mgpIters = 0.0;
  double cgpIters = 0.0;
  double extraAttempts = 0.0;
  double accountedPeakMib = 0.0;
  std::uint64_t allocs = 0;
};

SessionOptions sessionOptions(int threads, bool multilevel) {
  SessionOptions so;
  so.threads = threads;
  so.logLevel = LogLevel::kOff;
  if (multilevel) {  // what eplace_cli --multilevel selects
    so.supervised = true;
    so.sup.multilevel.enabled = true;
  }
  return so;
}

void finishOp(FlowOp& op, PlacerSession& s, const FlowResult& r) {
  op.hpwl = r.finalHpwl;
  op.ok = r.status.ok() && r.legality.legal;
  if (!r.status.ok()) {
    op.error = r.status.toString();
  } else if (!r.legality.legal) {
    op.error = "placement not legal: " + r.legality.firstIssue;
  }
  const StatsRegistry& stats = s.context().stats();
  op.gradEvals = stats.value("gp.gradEvals");
  op.gpIterations = stats.value("gp.iterations");
  op.levels = stats.value("cluster.levels");
  op.mgpIters = r.mgp.iterations;
  op.cgpIters = r.cgp.iterations;
  for (const StageReport& sr : s.report().stages) {
    op.extraAttempts += std::max(0, sr.attempts - 1);
  }
  op.accountedPeakMib =
      static_cast<double>(s.context().memory().peakBytes()) / kMiB;
}

/// Loads the design into a fresh session; returns false (op.error set) when
/// the load fails.
bool loadOp(FlowOp& op, PlacerSession& s, const Design& d) {
  const Timer t;
  const Status ls = s.load(d.aux);
  op.setupS += t.seconds();
  if (!ls.ok()) op.error = "load " + d.name + ": " + ls.toString();
  return ls.ok();
}

/// PlacerSession::load + place. With a tracer, supervised stages become
/// spans through SupervisorConfig::onProgress and GP iterations through
/// FlowConfig::gpTrace (the traced path of the multilevel workload).
FlowOp placeSession(const Design& d, int threads, bool multilevel,
                    Tracer* tracer, RunRecord* record = nullptr) {
  FlowOp op;
  SessionOptions so = sessionOptions(threads, multilevel);
  IterationSpans iters;
  int root = -1;
  if (tracer != nullptr) {
    iters.tracer = tracer;
    so.flow.gpTrace = [&iters](const std::string& stage,
                               const GpIterTrace& it) { iters(stage, it); };
    so.sup.onProgress = [&](const SupervisorEvent& ev) {
      if (ev.kind == SupervisorEvent::Kind::kStageStart) {
        const char* name = flowStageName(ev.stage);
        iters.parent = tracer->open(name, stageLayer(name), root);
      } else if (ev.kind == SupervisorEvent::Kind::kStageFinish) {
        tracer->close(iters.parent);
        iters.parent = root;
      }
    };
  }
  const Timer ts;
  PlacerSession s(so);
  op.setupS = ts.seconds();
  if (!loadOp(op, s, d)) return op;
  if (tracer != nullptr) root = tracer->open("place", kFlowOther, -1, true);
  iters.parent = root;
  const std::uint64_t a0 = allocCount();
  const Timer tp;
  const StatusOr<FlowResult> r = s.place();
  op.placeS = tp.seconds();
  op.allocs = allocCount() - a0;
  if (tracer != nullptr) tracer->close(root);
  if (!r.ok()) {
    op.error = r.status().toString();
    return op;
  }
  finishOp(op, s, *r);
  if (record != nullptr && s.record() != nullptr) *record = *s.record();
  return op;
}

/// Traced plain placement: the flowStage* functions called in runEplaceFlow
/// order, after the sanitize/validate of runEplaceFlowChecked, each wrapped
/// in a span. Must produce the same bits as PlacerSession::place(). An
/// uncounted placement is traced but left out of the per-layer shares.
FlowOp placeStages(const Design& d, int threads, Tracer& tracer,
                   bool counted) {
  FlowOp op;
  const SessionOptions so = sessionOptions(threads, false);
  const Timer ts;
  PlacerSession s(so);
  op.setupS = ts.seconds();
  if (!loadOp(op, s, d)) return op;
  PlacementDB& db = s.db();
  IterationSpans iters;
  iters.tracer = &tracer;
  FlowState st;
  st.cfg = so.flow;
  st.ctx = &s.context();
  st.cfg.gpTrace = [&iters](const std::string& stage, const GpIterTrace& it) {
    iters(stage, it);
  };
  const int root = tracer.open("place", kFlowOther, -1, counted);
  const Timer tp;
  const auto stage = [&](const char* name, Layer layer, const auto& fn) {
    iters.parent = tracer.open(name, layer, root);
    fn();
    tracer.close(iters.parent);
  };
  Status valid;
  stage("check", kFlowOther, [&] {
    valid = db.sanitize();
    if (valid.ok()) valid = db.validate();
  });
  if (valid.ok()) {
    stage("mIP", kMip, [&] { flowStageMip(db, st); });
    st.mixedSize = db.numMovableMacros() > 0;
    stage("mGP", kMgp, [&] { flowStageMgp(db, st); });
    if (st.mixedSize) {
      stage("mLG", kMlg, [&] {
        flowStageMlg(db, st);
        flowFreezeMacros(db);
      });
      stage("cGP", kCgp, [&] { flowStageCgp(db, st); });
    }
    if (st.cfg.runDetail) stage("cDP", kCdp, [&] { flowStageCdp(db, st); });
    stage("finish", kFlowOther, [&] { flowFinish(db, st); });
  }
  op.placeS = tp.seconds();
  tracer.close(root);
  if (!valid.ok()) {
    op.error = valid.toString();
    return op;
  }
  finishOp(op, s, st.res);
  return op;
}

// --- kernel replay -----------------------------------------------------------

constexpr int kKernelReps = 20;

/// The GP kernels on one post-mGP state (movables + fillers), each timed as
/// the median of kKernelReps calls after a warm-up call, at 1 thread and at
/// flowThreads().
struct KernelTimes {
  std::size_t grid = 0;
  std::array<double, 2> updateUs{}, gatherUs{}, overflowUs{}, solveUs{},
      waUs{}, hpwlUs{};
  double allocsPerOp = 0.0;
  double ladderS = 0.0;  // buildClusterLadder on the same instance
  bool ok = false;
  std::string error;
};

double kernelUs(const auto& fn, std::uint64_t* allocs) {
  fn();  // warm-up: scratch arenas and transform workspaces grow here
  std::vector<double> us(kKernelReps);
  const std::uint64_t a0 = allocCount();
  for (double& u : us) {
    const double t0 = nowS();
    fn();
    u = (nowS() - t0) * 1e6;
  }
  *allocs += allocCount() - a0;
  return median(std::move(us));
}

/// Places `d` through mIP and mGP (plain flow), then replays the kernels on
/// that state. `ladder` also times buildClusterLadder on the instance.
KernelTimes replayKernels(const Design& d, bool ladder) {
  KernelTimes kt;
  const SessionOptions so = sessionOptions(flowThreads(), false);
  PlacerSession s(so);
  Status st0 = s.load(d.aux);
  PlacementDB& db = s.db();
  if (st0.ok()) st0 = db.sanitize();
  if (!st0.ok()) {
    kt.error = "replay load: " + st0.toString();
    return kt;
  }
  FlowState st;
  st.cfg = so.flow;
  st.ctx = &s.context();
  flowStageMip(db, st);
  flowStageMgp(db, st);

  const auto mov = db.movable();
  const std::size_t nCells = mov.size();
  const std::size_t n = nCells + st.fillers.size();
  std::vector<double> x(n), y(n), w(n), h(n);
  for (std::size_t v = 0; v < nCells; ++v) {
    const Object& o = db.objects[static_cast<std::size_t>(mov[v])];
    const Point c = o.center();
    x[v] = c.x;
    y[v] = c.y;
    w[v] = o.w;
    h[v] = o.h;
  }
  for (std::size_t k = 0; k < st.fillers.size(); ++k) {
    x[nCells + k] = st.fillers.cx[k];
    y[nCells + k] = st.fillers.cy[k];
    w[nCells + k] = st.fillers.w;
    h[nCells + k] = st.fillers.h;
  }
  kt.grid = BinGrid::chooseResolution(n);
  ElectroDensity density(db.region, kt.grid, kt.grid, db.targetDensity);
  density.stampFixed(db);
  PoissonSolver solver(kt.grid, kt.grid, density.grid().dx(),
                       density.grid().dy());
  const auto objToVar = db.view().objToMovable();
  WlEvaluator wl(db, objToVar, n);
  const VarView view{&db, objToVar, x, y};
  const ChargeView all{x, y, w, h};
  const ChargeView cells{std::span<const double>(x).first(nCells),
                         std::span<const double>(y).first(nCells),
                         std::span<const double>(w).first(nCells),
                         std::span<const double>(h).first(nCells)};
  std::vector<double> gx(n), gy(n);
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    ThreadPool pool(i == 0 ? 1 : flowThreads());
    ThreadPool* p = &pool;
    density.update(all, p);
    const double tau = density.overflow(cells, p);
    const double gamma = waGammaSchedule(density.grid().dx(), tau);
    kt.updateUs[i] = kernelUs([&] { density.update(all, p); }, &allocs);
    kt.gatherUs[i] =
        kernelUs([&] { density.gradient(all, gx, gy, p); }, &allocs);
    kt.overflowUs[i] =
        kernelUs([&] { (void)density.overflow(cells, p); }, &allocs);
    kt.solveUs[i] =
        kernelUs([&] { solver.solve(density.density(), p); }, &allocs);
    kt.waUs[i] = kernelUs(
        [&] { (void)wl.waGrad(view, gamma, gamma, gx, gy, p); }, &allocs);
    kt.hpwlUs[i] = kernelUs([&] { (void)wl.hpwl(view, p); }, &allocs);
  }
  kt.allocsPerOp = static_cast<double>(allocs) / (2.0 * 6.0 * kKernelReps);
  if (ladder) {
    const Timer t;
    const auto lr = buildClusterLadder(
        db, SupervisorConfig{}.multilevel.cluster, &s.context());
    kt.ladderS = t.seconds();
    if (!lr.ok()) {
      kt.error = "buildClusterLadder: " + lr.status().toString();
      return kt;
    }
  }
  kt.ok = true;
  return kt;
}

/// Per-layer kernel metrics; `col` picks the thread count the workload's
/// placements run at (0: one thread, 1: flowThreads()).
void reportKernels(Report& rep, const KernelTimes& kt, std::size_t col,
                   double gradEvals, double gpIterations, double opSeconds) {
  rep.check(kt.ok, "kernel replay: " + kt.error);
  rep.check(kt.allocsPerOp == 0.0, "kernel replay allocates in steady state");
  auto& v = rep.values;
  const char* suffix[2] = {".t1", ".t4"};
  for (std::size_t i = 0; i < 2; ++i) {
    v[std::string("density.update_us") + suffix[i]] = kt.updateUs[i];
    v[std::string("density.gather_us") + suffix[i]] = kt.gatherUs[i];
    v[std::string("density.overflow_us") + suffix[i]] = kt.overflowUs[i];
    v[std::string("fft.solve_us") + suffix[i]] = kt.solveUs[i];
    v[std::string("wirelength.wa_grad_us") + suffix[i]] = kt.waUs[i];
    v[std::string("wirelength.hpwl_us") + suffix[i]] = kt.hpwlUs[i];
  }
  const double g = static_cast<double>(kt.grid);
  v["density.grid_n"] = g;
  // Computed, not measured: one read of rho and one write each of psi,
  // xi_x and xi_y — the compulsory traffic of a solve, cache misses ignored.
  v["fft.bytes_per_solve"] = 4.0 * g * g * sizeof(double);
  v["mem.kernel_allocs_per_op"] = kt.allocsPerOp;
  // Busy time per placement, computed as time per call x calls: every
  // gradient evaluation stamps + solves + gathers and evaluates the WA
  // gradient; every iteration measures overflow and HPWL once.
  v["fft.busy_s"] = kt.solveUs[col] * 1e-6 * gradEvals;
  v["density.busy_s"] =
      ((kt.updateUs[col] - kt.solveUs[col] + kt.gatherUs[col]) * gradEvals +
       kt.overflowUs[col] * gpIterations) *
      1e-6;
  v["wirelength.busy_s"] =
      (kt.waUs[col] * gradEvals + kt.hpwlUs[col] * gpIterations) * 1e-6;
  if (kt.ladderS > 0.0 && opSeconds > 0.0) {
    v["cluster.ladder_share"] = kt.ladderS / opSeconds;
  }
}

/// Layer shares and coverage of the traced operations.
void reportShares(Report& rep, const Tracer& tracer, Layer opLayer) {
  double opSeconds = 0.0;
  const auto self = tracer.layerSelf(&opSeconds);
  for (int l = 0; l < kHarness; ++l) {
    rep.values[kLayerShare[l]] = opSeconds > 0.0 ? self[l] / opSeconds : 0.0;
  }
  rep.values["trace.coverage"] = 1.0 - rep.values[kLayerShare[opLayer]];
  rep.values["trace.spans"] = static_cast<double>(tracer.size());
  const std::vector<double> iterMs = tracer.iterationMs();
  if (!iterMs.empty()) {
    rep.values["opt.iter_ms_p50"] = quantile(iterMs, 0.5);
    rep.values["opt.iter_ms_p90"] = quantile(iterMs, 0.9);
  }
}

// --- flow workloads ----------------------------------------------------------

struct FlowWorkload {
  const char* name;
  std::vector<const char*> circuits;  // one design of each per round
  std::size_t hpwlRounds;  // rounds that always run; their designs sum to hpwl
  bool multilevel;
  bool singleThread;  // --trace 1: also place the first design at 1 thread
};

const FlowWorkload kFlowWorkloads[] = {
    {"std_10k", {"scale_10k"}, 4, false, true},
    {"mms_mixed",
     {"mms_bigblue2s", "mms_bigblue3s", "mms_newblue2s", "mms_adaptec5s"},
     2,
     false,
     false},
    {"ml_10k", {"scale_10k"}, 4, true, false},
};

/// Set-ups per run behind the setup_s median; runs with fewer placements
/// add set-ups of their first design.
constexpr std::size_t kMinSetups = 15;

/// The median place() time of each circuit of the workload, summed: the
/// median time of one pass over its circuits. A plain median over a mix of
/// circuit sizes would jump between their modes from run to run.
double passMedian(const std::vector<FlowOp>& ops, std::size_t circuits) {
  double sum = 0.0;
  for (std::size_t c = 0; c < circuits; ++c) {
    std::vector<double> placeS;
    for (std::size_t i = c; i < ops.size(); i += circuits) {
      placeS.push_back(ops[i].placeS);
    }
    sum += median(std::move(placeS));
  }
  return sum;
}

/// One untimed placement of a small design before the window opens, so the
/// thread pool, the allocator and the code are warm when timing starts.
void warmUp(const Workspace& ws, int threads, Report& rep) {
  GenSpec spec = suiteSpec("scale_1k");
  spec.name = "warmup";
  const Design d = ws.write(spec);
  rep.check(placeSession(d, threads, false, nullptr).ok, "warm-up placement");
}

/// One set-up as every placement starts: session construction + load().
double setupOnce(const Design& d, int threads, bool multilevel, Report& rep) {
  const Timer t;
  PlacerSession s(sessionOptions(threads, multilevel));
  const Status ls = s.load(d.aux);
  const double seconds = t.seconds();
  rep.check(ls.ok(), "load " + d.name + ": " + ls.toString());
  return seconds;
}

void checkOp(Report& rep, const FlowOp& op, const Design& d) {
  rep.check(op.ok, d.name + ": " + op.error);
}

void checkSameBits(Report& rep, const FlowOp& a, const FlowOp& b,
                   const std::string& what) {
  rep.check(std::bit_cast<std::uint64_t>(a.hpwl) ==
                std::bit_cast<std::uint64_t>(b.hpwl),
            what + ": hpwl differs");
}

/// Runs rounds of placements until `seconds` is used, never fewer than
/// wl.hpwlRounds, and never starting a round the remaining time cannot hold.
void runFlow(const FlowWorkload& wl, std::uint64_t seed, double seconds,
             bool trace, const Workspace& ws, Report& rep, Tracer& tracer,
             RunRecord* record) {
  const int threads = flowThreads();
  warmUp(ws, threads, rep);
  const double t0 = nowS();
  std::vector<FlowOp> ops;  // at `threads`, in round order
  std::vector<double> setups;
  double hpwl = 0.0;
  Design first;
  FlowOp baseline;  // --trace 1: untraced placement of the first design
  double lastRound = 0.0;
  for (std::size_t round = 0;
       round < wl.hpwlRounds || nowS() - t0 + lastRound <= seconds; ++round) {
    const double r0 = nowS();
    for (std::size_t c = 0; c < wl.circuits.size(); ++c) {
      const std::size_t index = round * wl.circuits.size() + c;
      const Design d =
          ws.write(seededSpec(suiteSpec(wl.circuits[c]), seed, index));
      const bool firstDesign = index == 0;
      if (firstDesign) first = d;
      FlowOp op;
      if (!trace) {
        op = placeSession(d, threads, wl.multilevel, nullptr,
                          firstDesign ? record : nullptr);
      } else {
        if (firstDesign) {
          baseline = placeSession(d, threads, wl.multilevel, nullptr, record);
          checkOp(rep, baseline, d);
        }
        op = wl.multilevel ? placeSession(d, threads, true, &tracer)
                           : placeStages(d, threads, tracer, true);
        if (firstDesign) checkSameBits(rep, baseline, op, d.name + " traced");
      }
      checkOp(rep, op, d);
      setups.push_back(op.setupS);
      if (round < wl.hpwlRounds) hpwl += op.hpwl;
      ops.push_back(op);
      if (trace && firstDesign && wl.singleThread) {
        // One-thread baseline of the same placement: must be bit-identical.
        // Untraced runs skip it so their time goes to more 4-thread samples.
        const FlowOp one = placeStages(d, 1, tracer, false);
        checkOp(rep, one, d);
        checkSameBits(rep, op, one, d.name + " 1 vs " +
                                        std::to_string(threads) + " threads");
        if (op.placeS > 0.0) {
          rep.values["threads.place_speedup"] = one.placeS / op.placeS;
        }
      }
    }
    lastRound = nowS() - r0;
  }

  std::vector<double> mgpIters, cgpIters, levels;
  double evals = 0.0, iters = 0.0, extra = 0.0;
  for (const FlowOp& op : ops) {
    mgpIters.push_back(op.mgpIters);
    cgpIters.push_back(op.cgpIters);
    levels.push_back(op.levels);
    evals += op.gradEvals;
    iters += op.gpIterations;
    extra += op.extraAttempts;
  }
  auto& v = rep.values;
  const double opS = passMedian(ops, wl.circuits.size());
  if (!trace) {
    while (setups.size() < kMinSetups) {
      setups.push_back(setupOnce(first, threads, wl.multilevel, rep));
    }
    v["setup_s"] = median(setups);
    v["latency_p50_s"] = opS;
    v["peak_rss_mib"] = peakRssMib();
    v["hpwl"] = hpwl;
    return;
  }
  v["trace.op_s"] = opS;
  v["trace.overhead_frac"] =
      baseline.placeS > 0.0 ? ops.front().placeS / baseline.placeS - 1.0 : 0.0;
  reportShares(rep, tracer, kFlowOther);
  v["opt.mgp_iters"] = median(mgpIters);
  v["opt.cgp_iters"] = median(cgpIters);
  v["opt.evals_per_iter"] = iters > 0.0 ? evals / iters : 0.0;
  v["cluster.levels"] = median(levels);
  v["eplace.stage_attempts_extra"] = extra;
  v["mem.accounted_peak_mib"] = baseline.accountedPeakMib;
  v["mem.flow_allocs"] = static_cast<double>(baseline.allocs);
  const double n = static_cast<double>(ops.size());
  reportKernels(rep, replayKernels(first, wl.multilevel), 1, evals / n,
                iters / n, opS);
}

// --- serve workload ----------------------------------------------------------

constexpr int kServeClients = 3;
/// Distinct designs of one size: a median over a mix of sizes would jump
/// between their modes from run to run, and a few designs of one seed would
/// make the seed's convergence, not the daemon, set the median.
constexpr std::size_t kServeDesigns = 24;
constexpr std::size_t kServeCells = 500;
constexpr int kServeWarmups = 2;
/// Client c's job i places design (c + kServeClients * i) % kServeDesigns,
/// so this many jobs per client cover every design at least once.
constexpr std::size_t kServeMinJobs =
    (kServeDesigns + kServeClients - 1) / kServeClients;
constexpr int kServeSetups = 5;
/// The daemon keeps every finished job's outcome, so its resident set grows
/// with the jobs served. peak_rss_mib is read when this many loop jobs have
/// finished (about 9 s into the window on a 4-vCPU Xeon VM), so that the
/// reading does not follow the host's speed.
constexpr int kServeRssJobs = 90;

struct StageEvent {
  std::string stage;
  double seconds = 0.0;
  double at = 0.0;  // when the event line arrived
};

struct JobSample {
  std::size_t design = 0;
  bool warmup = false;  // set-up job: checked, never measured
  bool watched = false;
  double start = 0.0, acked = 0.0, done = 0.0;
  Status status;
  serve::JobOutcome out;
  std::vector<StageEvent> stages;
};

/// `watch` instead of `wait`: the daemon streams the supervisor's stage
/// events before the outcome, which gives a traced job its stage spans.
StatusOr<serve::JobOutcome> watchJob(serve::ServeClient& c, std::uint64_t id,
                                     std::vector<StageEvent>* stages) {
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("watch"));
  req.set("id", JsonValue::number(static_cast<double>(id)));
  StatusOr<std::string> line = c.callRaw(writeJson(req), 600.0);
  while (line.ok()) {
    const double at = nowS();
    const StatusOr<JsonValue> v = parseJson(*line);
    if (!v.ok()) return v.status();
    if (const JsonValue* ev = v->find("event")) {
      if (ev->asString() == "stage_finish") {
        stages->push_back(
            {v->getString("stage"), v->getNumber("seconds", 0.0), at});
      }
      line = c.readLine(600.0);
      continue;
    }
    const Status s = serve::statusFromResponse(*v);
    if (!s.ok()) return s;
    const JsonValue* result = v->find("result");
    if (result == nullptr) {
      return Status::internal("watch ended without a result");
    }
    serve::JobOutcome out;
    const Status ps = serve::outcomeFromJson(*result, &out);
    if (!ps.ok()) return ps;
    return out;
  }
  return line.status();
}

JobSample runJob(serve::ServeClient& c, const Design& d, std::size_t design,
                 bool watch) {
  JobSample j;
  j.design = design;
  j.watched = watch;
  serve::JobSpec spec;
  spec.name = d.name;
  spec.auxPath = d.aux;
  j.start = nowS();
  const StatusOr<std::uint64_t> id = c.submit(spec);
  j.acked = nowS();
  if (!id.ok()) {
    j.status = id.status();
    j.done = j.acked;
    return j;
  }
  j.out.id = *id;
  StatusOr<serve::JobOutcome> out =
      watch ? watchJob(c, *id, &j.stages) : c.wait(*id, 600.0);
  j.done = nowS();
  if (!out.ok()) {
    j.status = out.status();
  } else {
    j.out = std::move(*out);
    j.status = j.out.status;
  }
  return j;
}

/// Spans of one watched job, placed from its client-side timestamps and the
/// daemon's own queue/run/stage seconds. The daemon starts the queue clock
/// before the journal write that the submit waits for, so only the queue
/// time left after the ack becomes a span.
void traceJob(Tracer& tr, const JobSample& j) {
  const auto add = [&](const std::string& name, Layer layer, int parent,
                       double start, double end) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.op = parent < 0;
    s.job = j.out.id;
    s.start = start;
    s.end = std::max(start, end);
    return tr.add(std::move(s));
  };
  const int job = add("job", kWire, -1, j.start, j.done);
  add("submit", kSubmit, job, j.start, j.acked);
  const double queueEnd =
      std::min(j.done, j.acked + std::max(0.0, j.out.queueWaitSeconds -
                                                   (j.acked - j.start)));
  add("queue", kQueue, job, j.acked, queueEnd);
  const double runEnd = std::min(j.done, queueEnd + j.out.wallSeconds);
  const int run = add("run", kRunOther, job, queueEnd, runEnd);
  for (const StageEvent& e : j.stages) {
    const double end = std::clamp(e.at, queueEnd, runEnd);
    add(e.stage, stageLayer(e.stage), run,
        std::clamp(end - e.seconds, queueEnd, end), end);
  }
}

/// One in-process daemon; ServeDaemon's destructor drains and joins it.
struct Daemon {
  serve::ServeOptions opt;
  std::unique_ptr<serve::ServeDaemon> daemon;
};

/// Set-up of the serve workload: daemon start, one client connection and
/// kServeWarmups jobs of the smallest design.
Status startDaemon(Daemon& dm, const Workspace& ws, int k, const Design& warm,
                   std::vector<JobSample>* warmups) {
  dm.daemon.reset();
  dm.opt.socketPath = ws.dir() + "/d" + std::to_string(k) + ".sock";
  dm.opt.root = ws.dir() + "/serve" + std::to_string(k);
  dm.opt.workers = 2;
  dm.opt.jobThreads = 1;
  dm.opt.logLevel = LogLevel::kOff;
  dm.daemon = std::make_unique<serve::ServeDaemon>(dm.opt);
  const Status s = dm.daemon->start();
  if (!s.ok()) return s;
  serve::ServeClient c;
  const Status cs = c.connect(dm.opt.socketPath);
  if (!cs.ok()) return cs;
  for (int i = 0; i < kServeWarmups; ++i) {
    warmups->push_back(runJob(c, warm, 0, false));
    warmups->back().warmup = true;
  }
  return Status::okStatus();
}

void runServe(std::uint64_t seed, double seconds, bool trace,
              const Workspace& ws, Report& rep, Tracer& tracer) {
  std::vector<Design> designs;
  for (std::size_t i = 0; i < kServeDesigns; ++i) {
    GenSpec spec;
    spec.name = "serve";
    spec.numCells = kServeCells;
    designs.push_back(ws.write(seededSpec(spec, seed, i)));
  }

  std::vector<JobSample> warmups;
  std::vector<double> setups;
  Daemon dm;
  for (int k = 0; k < kServeSetups; ++k) {
    const double s0 = nowS();
    const Status s = startDaemon(dm, ws, k, designs.front(), &warmups);
    setups.push_back(nowS() - s0);
    rep.check(s.ok(), "serve set-up: " + s.toString());
    if (!s.ok()) return;
  }

  // Closed loop: each client submits its next job only after the previous
  // one returned, over its own connection, until the window closes.
  std::vector<std::vector<JobSample>> perClient(kServeClients);
  std::atomic<int> loopJobs{0};
  std::atomic<double> rssAtJobs{0.0};
  const std::uint64_t a0 = allocCount();
  const double t0 = nowS();
  const double deadline = t0 + seconds;
  {
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kServeClients; ++ci) {
      clients.emplace_back([&, ci] {
        std::vector<JobSample>& mine = perClient[static_cast<std::size_t>(ci)];
        const auto fail = [&](Status s) {
          JobSample j;
          j.status = std::move(s);
          mine.push_back(std::move(j));
        };
        try {
          serve::ServeClient c;
          const Status cs = c.connect(dm.opt.socketPath);
          if (!cs.ok()) return fail(cs);
          for (std::size_t i = 0; i < kServeMinJobs || nowS() < deadline;
               ++i) {
            const std::size_t k = (static_cast<std::size_t>(ci) +
                                   kServeClients * i) % kServeDesigns;
            mine.push_back(runJob(c, designs[k], k, trace && i % 2 == 1));
            if (++loopJobs == kServeRssJobs) rssAtJobs = peakRssMib();
          }
        } catch (const std::exception& e) {
          fail(Status::internal(std::string("client aborted: ") + e.what()));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const std::uint64_t loopAllocs = allocCount() - a0;
  std::vector<JobSample> jobs = std::move(warmups);
  for (auto& v : perClient) {
    for (JobSample& j : v) jobs.push_back(std::move(j));
  }

  // Correctness: every job OK and legal; every job of a design returns the
  // same HPWL bits as that design's first job (warm-ups included).
  std::vector<std::uint64_t> bits(kServeDesigns, 0);
  std::vector<bool> seen(kServeDesigns, false);
  std::vector<double> designHpwl(kServeDesigns, 0.0);
  double rejected = 0.0;
  std::vector<double> latency, waitedLatency, watchedLatency, iterMs;
  double evals = 0.0, gpIters = 0.0, snapshots = 0.0, extra = 0.0,
         peakBytes = 0.0;
  std::vector<double> mgpIters, cgpIters;
  for (const JobSample& j : jobs) {
    const std::string what = designs[j.design].name + " job " +
                             std::to_string(j.out.id);
    if (j.status.code() == StatusCode::kResourceExhausted) rejected += 1.0;
    rep.check(j.status.ok() && j.out.legal,
              what + ": " +
                  (j.status.ok() ? "not legal" : j.status.toString()));
    if (!j.status.ok()) continue;
    if (!seen[j.design]) {
      seen[j.design] = true;
      bits[j.design] = j.out.hpwlBits;
      designHpwl[j.design] = j.out.finalHpwl;
    } else {
      rep.check(j.out.hpwlBits == bits[j.design], what + ": hpwl differs");
    }
    if (j.warmup) continue;
    latency.push_back(j.done - j.start);
    (j.watched ? watchedLatency : waitedLatency).push_back(j.done - j.start);
    extra += j.out.retries;
    peakBytes = std::max(peakBytes, static_cast<double>(j.out.peakBytes));
    RunRecord rec;
    if (!j.out.record.isNull() && runRecordFromJson(j.out.record, &rec).ok()) {
      snapshots += rec.snapshotsWritten;
      for (const StageRecord& s : rec.stages) {
        if (s.stage == "mGP") {
          mgpIters.push_back(static_cast<double>(s.iterations));
          if (s.iterations > 0) {
            iterMs.push_back(s.wallMs / static_cast<double>(s.iterations));
          }
        }
        if (s.stage == "cGP") {
          cgpIters.push_back(static_cast<double>(s.iterations));
        }
      }
      for (const auto& [name, value] : rec.stats) {
        if (name == "gp.gradEvals") evals += value;
        if (name == "gp.iterations") gpIters += value;
      }
    }
    if (trace && j.watched) traceJob(tracer, j);
  }
  const double done = static_cast<double>(latency.size());
  auto& v = rep.values;
  if (!trace) {
    v["setup_s"] = median(setups);
    v["latency_p50_s"] = median(latency);
    v["peak_rss_mib"] = rssAtJobs > 0.0 ? rssAtJobs.load() : peakRssMib();
    double hpwl = 0.0;
    for (double h : designHpwl) hpwl += h;
    v["hpwl"] = hpwl;
    return;
  }
  v["trace.op_s"] = median(watchedLatency);
  v["trace.overhead_frac"] =
      median(watchedLatency) / median(waitedLatency) - 1.0;
  reportShares(rep, tracer, kWire);
  // Serve jobs expose no per-iteration hook: iteration time is each job's
  // mGP wall time over its iterations, distributed over jobs.
  v["opt.iter_ms_p50"] = quantile(iterMs, 0.5);
  v["opt.iter_ms_p90"] = quantile(iterMs, 0.9);
  v["opt.mgp_iters"] = median(mgpIters);
  v["opt.cgp_iters"] = median(cgpIters);
  v["opt.evals_per_iter"] = gpIters > 0.0 ? evals / gpIters : 0.0;
  v["eplace.stage_attempts_extra"] = extra;
  v["mem.accounted_peak_mib"] = peakBytes / kMiB;
  v["mem.flow_allocs"] =
      done > 0.0 ? static_cast<double>(loopAllocs) / done : 0.0;
  v["serve.jobs"] = done;
  v["serve.rejected"] = rejected;
  v["serve.tail_ratio"] =
      done > 0.0 ? quantile(latency, 0.9) / median(latency) : 0.0;
  v["serve.snapshots_per_job"] = done > 0.0 ? snapshots / done : 0.0;
  // Jobs run at jobThreads = 1: replay the kernels on the first design.
  reportKernels(rep, replayKernels(designs.front(), false), 0,
                done > 0.0 ? evals / done : 0.0,
                done > 0.0 ? gpIters / done : 0.0, 0.0);
}

// --- main --------------------------------------------------------------------

const char* const kWorkloads[] = {"std_10k", "mms_mixed", "ml_10k",
                                  "serve_mix"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <std_10k|mms_mixed|ml_10k|serve_mix> "
               "--seed <n>=1> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

/// "20261016T093000": sortable UTC time of the run.
std::string utcStamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y%m%dT%H%M%S", &tm);
  return buf;
}

std::string compilerName() {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seedArg = 1;
  double seconds = 20.0;
  int traceArg = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seedArg = std::atoll(val);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      traceArg = std::atoi(val);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || seedArg < 1 || !(seconds > 0.0) ||
      (traceArg != 0 && traceArg != 1) ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
          std::end(kWorkloads)) {
    return usage(argv[0]);
  }
  const auto seed = static_cast<std::uint64_t>(seedArg);
  const bool trace = traceArg == 1;

  Report rep;
  Tracer tracer;
  RunRecord record;
  try {
    const Workspace ws;
    if (workload == "serve_mix") {
      runServe(seed, seconds, trace, ws, rep, tracer);
    } else {
      for (const FlowWorkload& wl : kFlowWorkloads) {
        if (workload == wl.name) {
          runFlow(wl, seed, seconds, trace, ws, rep, tracer, &record);
        }
      }
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("aborted: ") + e.what());
  }

  // Results: one human-readable line per metric, the run file under
  // bench_results/, and the JSON line last.
  JsonValue metrics = JsonValue::object();
  for (const MetricSpec& m : trace ? std::span<const MetricSpec>(kPerLayer)
                                   : std::span<const MetricSpec>(kEndToEnd)) {
    const double value = rep.values[m.name];
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name, value, m.unit);
    JsonValue mv = JsonValue::object();
    mv.set("value", JsonValue::number(value));
    mv.set("unit", JsonValue::str(m.unit));
    metrics.set(m.name, std::move(mv));
  }
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "eplace_bench: FAILED %s\n", f.c_str());
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(correct));
  result.set("attempted",
             JsonValue::number(static_cast<double>(rep.attempted)));
  result.set("failed", JsonValue::number(static_cast<double>(rep.failed)));
  result.set("metrics", metrics);

  // pruneRecordFiles keeps the lexicographically largest names, so the UTC
  // start time leads the name and retention keeps the newest runs.
  const std::string stem = "bench_results/eplace_bench_" + utcStamp() + "_" +
                           workload + "_s" + std::to_string(seed) +
                           (trace ? "_layers" : "_e2e");
  JsonValue file = result;
  file.set("workload", JsonValue::str(workload));
  file.set("seed", JsonValue::number(static_cast<double>(seed)));
  file.set("seconds", JsonValue::number(seconds));
  file.set("threads", JsonValue::number(flowThreads()));
  file.set("nproc", JsonValue::number(std::thread::hardware_concurrency()));
  file.set("compiler", JsonValue::str(compilerName()));
  file.set("build_type", JsonValue::str(EP_BENCH_BUILD_TYPE));
  JsonValue failures = JsonValue::array();
  for (const std::string& f : rep.failures) failures.push(JsonValue::str(f));
  file.set("failures", std::move(failures));
  std::error_code ec;
  fs::create_directories("bench_results", ec);
  Status ws = io::writeFileDurably(stem + ".json", writeJson(file) + "\n");
  if (ws.ok() && trace) {
    ws = io::writeFileDurably(stem + "_trace.json",
                              writeJson(tracer.chromeJson()) + "\n");
  }
  if (ws.ok() && !record.stages.empty()) {
    ws = writeRunRecordFile(stem + "_record.json", record);
  }
  if (!ws.ok()) {
    std::fprintf(stderr, "eplace_bench: cannot write %s*: %s\n", stem.c_str(),
                 ws.toString().c_str());
  }
  pruneRecordFiles("bench_results", "eplace_bench", 32);

  std::printf("%s\n", writeJson(result).c_str());
  return correct ? 0 : 1;
}
