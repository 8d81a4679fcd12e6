// eplace_cli — command-line placer over Bookshelf (ISPD contest) files.
//
//   eplace_cli <design.aux> [options]
//     --out <dir>            write the placed result as <dir>/<name>_placed.*
//     --density <rho>        target density rho_t (default 1.0)
//     --plot <file.ppm>      render the final layout
//     --no-detail            stop after legalization
//     --checkpoint-every <n> rollback checkpoint cadence in GP iterations
//     --time-budget <sec>    wall-clock deadline for the whole run, timed
//                            from session start (per design in --batch)
//     --max-recoveries <n>   rollback attempts before graceful degradation
//     --supervised           the default supervisor policy (per-stage retry
//                            and fallbacks) instead of the plain one-attempt
//                            policy
//     --snapshot-dir <dir>   write durable snapshots there (implies
//                            --supervised)
//     --save-every <n>       GP iterations between mid-stage snapshots
//                            (0 = stage boundaries only)
//     --resume <dir>         resume from the newest valid snapshot in <dir>
//                            (implies --supervised)
//     --stage-attempts <n>   per-stage retry cap for the supervisor
//     --multilevel           multilevel V-cycle mGP for large designs
//                            (implies --supervised; docs/SCALING.md)
//     --ml-min-movable <n>   movable-count threshold to engage the ladder
//     --inject <site=kind@tick[xN]>  arm the fault injector, e.g.
//                            nesterov.grad=nan@40, fft.forward=spike@3,
//                            bookshelf.line=trunc@10x-1 (N=-1: every pass)
//     --threads <n>          worker threads for the hot kernels (default:
//                            hardware concurrency; results are bit-identical
//                            for any n, see docs/PERFORMANCE.md)
//     --batch <manifest>     place every .aux listed in <manifest> (one path
//                            per line, # comments) instead of a single design
//     --sessions <k>         concurrent placer sessions for --batch
//                            (default 2); --threads is split across them
//     --record-out <path>    write the structured run record (JSON, see
//                            docs/OBSERVABILITY.md) there; in --batch mode
//                            <path> is a directory getting <name>.json each
//     --log-level <lvl>      debug | info | warn | error | off (default warn)
//     --verbose              shorthand for --log-level info
//
// Exit codes follow ep::statusExitCode (docs/ROBUSTNESS.md):
//   0 success   1 usage/unknown error   2 InvalidInput   3 Io
//   4 NumericalDivergence   5 Timeout   6 placed but not legal
//   7 Internal (a hot-path task threw; converted at the flow boundary)
//   8 Cancelled   9 ResourceExhausted   10 Unavailable
//
// With no arguments it demonstrates the full loop on a generated circuit:
// write Bookshelf, read it back, place, and emit the placed .pl — i.e. the
// exact workflow for running the genuine ISPD 2005/2006/MMS releases.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bookshelf/bookshelf.h"
#include "eplace/flow.h"
#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "eval/plot.h"
#include "gen/generator.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "util/status.h"

namespace {

// The process exit code is the shared taxonomy mapping (ep::statusExitCode);
// 6 is reserved by this CLI for "placed but not legal".
int exitCodeFor(ep::StatusCode code) { return ep::statusExitCode(code); }

/// Reads a batch manifest: one .aux path per line, blank lines and
/// #-comments skipped.
bool readManifest(const std::string& path, std::vector<ep::BatchItem>* out) {
  std::ifstream f(path);
  if (!f.good()) return false;
  std::string line;
  while (std::getline(f, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto last = line.find_last_not_of(" \t\r");
    out->push_back({line.substr(first, last - first + 1), ""});
  }
  return true;
}

int place(ep::PlacerSession& session, const std::string& outDir,
          const std::string& plotPath, const std::string& recordOut) {
  ep::RuntimeContext& ctx = session.context();
  const ep::PlacementDB& db = session.db();
  const ep::StatusOr<ep::FlowResult> run = session.place();
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().toString().c_str());
    return exitCodeFor(run.status().code());
  }
  if (!recordOut.empty()) {
    const ep::Status wr =
        ep::writeRunRecordFile(recordOut, *session.record(), &ctx.faults());
    if (!wr.ok()) {
      std::fprintf(stderr, "record write failed: %s\n", wr.toString().c_str());
      return exitCodeFor(wr.code());
    }
    std::printf("wrote %s\n", recordOut.c_str());
  }
  std::printf("%s\n", session.report().summary().c_str());
  const ep::FlowResult& res = *run;
  std::printf("%s: HPWL %.6g (scaled %.6g), overflow %.4f, legal=%s, %.2fs\n",
              db.name.c_str(), res.finalHpwl, res.finalScaledHpwl,
              ep::densityOverflow(db).overflow,
              res.legality.legal ? "yes" : "no", res.totalSeconds);
  if (!res.status.ok()) {
    std::fprintf(stderr, "degraded: %s (recoveries mGP=%d cGP=%d)\n",
                 res.status.toString().c_str(), res.mgpResult.recoveries,
                 res.cgpResult.recoveries);
  }
  if (!outDir.empty()) {
    std::filesystem::create_directories(outDir);
    const ep::Status wr = ep::writeBookshelf(outDir, db.name + "_placed", db);
    if (!wr.ok()) {
      std::fprintf(stderr, "error: %s\n", wr.toString().c_str());
      return exitCodeFor(wr.code());
    }
    std::printf("wrote %s/%s_placed.{aux,nodes,nets,pl,scl,wts}\n",
                outDir.c_str(), db.name.c_str());
  }
  if (!plotPath.empty() && ep::plotLayout(db, plotPath, ctx)) {
    std::printf("wrote %s\n", plotPath.c_str());
  }
  if (!res.status.ok()) return exitCodeFor(res.status.code());
  return res.legality.legal ? 0 : 6;
}

}  // namespace

int main(int argc, char** argv) {
  std::string aux, outDir, plotPath, batchPath, recordOut;
  double density = 0.0;
  double wallBudget = 0.0;
  int threads = 0;
  int sessions = 2;
  ep::LogLevel logLevel = ep::LogLevel::kWarn;
  ep::FlowConfig cfg;
  ep::SupervisorConfig sup;
  bool supervised = false;
  // Armed on the session's context once it exists (after --threads and
  // --log-level are known).
  std::vector<std::pair<std::string, ep::FaultSpec>> injections;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      outDir = argv[++i];
    } else if (a == "--density" && i + 1 < argc) {
      density = std::atof(argv[++i]);
    } else if (a == "--plot" && i + 1 < argc) {
      plotPath = argv[++i];
    } else if (a == "--no-detail") {
      cfg.runDetail = false;
    } else if (a == "--checkpoint-every" && i + 1 < argc) {
      cfg.gp.health.checkpointEvery = std::atoi(argv[++i]);
    } else if (a == "--time-budget" && i + 1 < argc) {
      wallBudget = std::atof(argv[++i]);
    } else if (a == "--max-recoveries" && i + 1 < argc) {
      cfg.gp.health.maxRecoveries = std::atoi(argv[++i]);
    } else if (a == "--supervised") {
      supervised = true;
    } else if (a == "--snapshot-dir" && i + 1 < argc) {
      sup.snapshotDir = argv[++i];
      supervised = true;
    } else if (a == "--save-every" && i + 1 < argc) {
      sup.saveEvery = std::atoi(argv[++i]);
      supervised = true;
    } else if (a == "--resume" && i + 1 < argc) {
      sup.resumeDir = argv[++i];
      supervised = true;
    } else if (a == "--stage-attempts" && i + 1 < argc) {
      sup.mgpAttempts = sup.mlgAttempts = sup.cgpAttempts = sup.cdpAttempts =
          std::atoi(argv[++i]);
      supervised = true;
    } else if (a == "--multilevel") {
      sup.multilevel.enabled = true;
      supervised = true;
    } else if (a == "--ml-min-movable" && i + 1 < argc) {
      sup.multilevel.minMovable =
          static_cast<std::size_t>(std::atoll(argv[++i]));
      // Lowering the engage threshold below the ladder's coarsening floor
      // would silently build zero levels; drag the floor down with it
      // (never up) so the flag works on small designs too.
      sup.multilevel.cluster.minMovable =
          std::min(sup.multilevel.cluster.minMovable,
                   std::max<std::size_t>(sup.multilevel.minMovable / 2, 64));
      sup.multilevel.enabled = true;
      supervised = true;
    } else if (a == "--inject" && i + 1 < argc) {
      std::string site;
      ep::FaultSpec spec;
      if (!ep::parseFaultSpec(argv[++i], &site, &spec)) {
        std::fprintf(stderr, "bad --inject spec %s\n", argv[i]);
        return 1;
      }
      injections.emplace_back(std::move(site), spec);
    } else if (a == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (a == "--record-out" && i + 1 < argc) {
      recordOut = argv[++i];
    } else if (a == "--batch" && i + 1 < argc) {
      batchPath = argv[++i];
    } else if (a == "--sessions" && i + 1 < argc) {
      sessions = std::atoi(argv[++i]);
    } else if (a == "--log-level" && i + 1 < argc) {
      if (!ep::parseLogLevel(argv[++i], &logLevel)) {
        std::fprintf(stderr, "bad --log-level %s\n", argv[i]);
        return 1;
      }
    } else if (a == "--verbose") {
      logLevel = ep::LogLevel::kInfo;
    } else if (a[0] != '-') {
      aux = a;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 1;
    }
  }
  // `--save-every` without an explicit directory checkpoints into the resume
  // directory (kill/resume loops keep one directory) or "./snapshots".
  if (sup.saveEvery > 0 && sup.snapshotDir.empty()) {
    sup.snapshotDir = sup.resumeDir.empty() ? "snapshots" : sup.resumeDir;
  }

  ep::SessionOptions so;
  so.threads = threads;
  so.logLevel = logLevel;
  so.wallBudgetSeconds = wallBudget;
  so.flow = cfg;
  so.supervised = supervised;
  so.sup = sup;

  // --- batch mode: N designs, K concurrent sessions -------------------------
  if (!batchPath.empty()) {
    std::vector<ep::BatchItem> items;
    if (!readManifest(batchPath, &items)) {
      std::fprintf(stderr, "cannot read manifest %s\n", batchPath.c_str());
      return 3;
    }
    if (items.empty()) {
      std::fprintf(stderr, "manifest %s lists no designs\n",
                   batchPath.c_str());
      return 2;
    }
    if (!injections.empty()) {
      std::fprintf(stderr,
                   "--inject applies to single-design runs only; ignored "
                   "in --batch mode\n");
    }
    ep::BatchOptions opt;
    opt.maxConcurrentSessions = sessions;
    opt.totalThreads = threads;
    opt.session = so;
    opt.snapshotRoot = sup.snapshotDir;  // per-session subdirectories
    std::printf("batch: %zu designs, %d sessions in flight\n", items.size(),
                opt.maxConcurrentSessions);
    const ep::BatchResult batch = ep::runPlacerBatch(items, opt);
    if (!recordOut.empty()) std::filesystem::create_directories(recordOut);
    int exit = 0;
    for (const auto& r : batch.items) {
      if (r.status.ok() && !recordOut.empty()) {
        const std::string path = recordOut + "/" + r.name + ".json";
        const ep::Status wr = ep::writeRunRecordFile(path, r.record);
        if (!wr.ok()) {
          std::fprintf(stderr, "record write failed: %s\n",
                       wr.toString().c_str());
          if (exit == 0) exit = exitCodeFor(wr.code());
        }
      }
      if (r.status.ok()) {
        std::printf("%-16s HPWL %.6g, legal=%s, %.2fs%s\n", r.name.c_str(),
                    r.flow.finalHpwl, r.flow.legality.legal ? "yes" : "no",
                    r.seconds,
                    r.flow.status.ok() ? "" : "  [degraded]");
        if (!r.flow.status.ok() && exit == 0) {
          exit = exitCodeFor(r.flow.status.code());
        }
        if (!r.flow.legality.legal && exit == 0) exit = 6;
      } else {
        std::printf("%-16s FAILED: %s\n", r.name.c_str(),
                    r.status.toString().c_str());
        if (exit == 0) exit = exitCodeFor(r.status.code());
      }
    }
    std::printf("batch done in %.2fs wall\n", batch.totalSeconds);
    return exit;
  }

  // --- one design: the same PlacerSession load/place/record path ----------
  ep::PlacerSession session(so);
  for (const auto& [site, spec] : injections) {
    session.context().faults().arm(site, spec);
    std::printf("armed fault: %s tick=%ld count=%d\n", site.c_str(),
                spec.atTick, spec.count);
  }

  if (aux.empty()) {
    // Demo mode: generate -> write -> read back -> place.
    std::printf("no .aux given; running the round-trip demo\n");
    ep::GenSpec spec;
    spec.name = "cli_demo";
    spec.numCells = 1500;
    spec.numMovableMacros = 8;
    spec.seed = 99;
    ep::PlacementDB generated = ep::generateCircuit(spec);
    std::filesystem::create_directories("cli_demo");
    const ep::Status wr = ep::writeBookshelf("cli_demo", "cli_demo", generated);
    if (!wr.ok()) {
      std::fprintf(stderr, "write failed: %s\n", wr.toString().c_str());
      return exitCodeFor(wr.code());
    }
    aux = "cli_demo/cli_demo.aux";
    if (outDir.empty()) outDir = "cli_demo";
  }

  const ep::Status rd = session.load(aux);
  if (!rd.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", aux.c_str(),
                 rd.toString().c_str());
    return exitCodeFor(rd.code());
  }
  ep::PlacementDB& db = session.db();
  if (density > 0.0) db.targetDensity = density;
  std::printf("loaded %s: %zu objects (%zu movable), %zu nets, region %.0f x "
              "%.0f, rho_t %.2f, threads %d\n",
              db.name.c_str(), db.objects.size(), db.numMovable(),
              db.nets.size(), db.region.width(), db.region.height(),
              db.targetDensity, session.context().threadCount());
  return place(session, outDir, plotPath, recordOut);
}
