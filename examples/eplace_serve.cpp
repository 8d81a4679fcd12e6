// eplace_serve — the placement daemon (src/serve/daemon.h).
//
//   eplace_serve --socket <path> --root <dir> [options]
//     --socket <path>     AF_UNIX socket to listen on (required; keep
//                         short — sun_path is ~100 bytes)
//     --root <dir>        durable state root: job journal, results,
//                         snapshots, stats dump (required)
//     --workers <n>       concurrent placement jobs (default 2)
//     --queue-cap <n>     admission queue bound; a full queue rejects with
//                         ResourceExhausted, it never blocks (default 64)
//     --job-threads <n>   per-job session threads (default 1)
//     --drain <sec>       graceful-shutdown drain budget before running
//                         jobs are checkpointed + preempted (default 30)
//     --save-every <n>    default mid-stage snapshot cadence (default 25)
//     --max-request <n>   request line byte cap (default 65536)
//     --inject <site=kind@tick[xN]>  arm a daemon-level fault
//                         (serve.request / serve.accept)
//     --log-level <lvl>   debug | info | warn | error | off
//     --verbose           shorthand for --log-level info
//
// Protocol and guarantees: docs/SERVING.md. SIGINT/SIGTERM trigger the
// same graceful drain as the "shutdown" op; SIGKILL is recovered from by
// the next start (journal + snapshots). Exit codes follow
// ep::statusExitCode.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/daemon.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "util/status.h"

namespace {

volatile std::sig_atomic_t gSignalled = 0;

void onSignal(int) { gSignalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  ep::serve::ServeOptions opt;
  std::vector<std::pair<std::string, ep::FaultSpec>> injections;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      opt.socketPath = argv[++i];
    } else if (a == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (a == "--workers" && i + 1 < argc) {
      opt.workers = std::atoi(argv[++i]);
    } else if (a == "--queue-cap" && i + 1 < argc) {
      opt.queueCapacity = std::atoi(argv[++i]);
    } else if (a == "--job-threads" && i + 1 < argc) {
      opt.jobThreads = std::atoi(argv[++i]);
    } else if (a == "--drain" && i + 1 < argc) {
      opt.drainSeconds = std::atof(argv[++i]);
    } else if (a == "--save-every" && i + 1 < argc) {
      opt.defaultSaveEvery = std::atoi(argv[++i]);
    } else if (a == "--max-request" && i + 1 < argc) {
      opt.maxRequestBytes =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (a == "--inject" && i + 1 < argc) {
      std::string site;
      ep::FaultSpec spec;
      if (!ep::parseFaultSpec(argv[++i], &site, &spec)) {
        std::fprintf(stderr, "bad --inject spec %s\n", argv[i]);
        return 1;
      }
      injections.emplace_back(std::move(site), spec);
    } else if (a == "--log-level" && i + 1 < argc) {
      if (!ep::parseLogLevel(argv[++i], &opt.logLevel)) {
        std::fprintf(stderr, "bad --log-level %s\n", argv[i]);
        return 1;
      }
    } else if (a == "--verbose") {
      opt.logLevel = ep::LogLevel::kInfo;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 1;
    }
  }
  if (opt.socketPath.empty() || opt.root.empty()) {
    std::fprintf(stderr, "usage: eplace_serve --socket <path> --root <dir> "
                         "[options]\n");
    return 1;
  }

  ep::serve::ServeDaemon daemon(opt);
  for (const auto& [site, spec] : injections) {
    daemon.context().faults().arm(site, spec);
  }
  const ep::Status s = daemon.start();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.toString().c_str());
    return ep::statusExitCode(s.code());
  }
  std::printf("eplace_serve: listening on %s (state root %s)\n",
              opt.socketPath.c_str(), opt.root.c_str());
  if (daemon.recoveredJobs() > 0) {
    std::printf("eplace_serve: resuming %d journaled job(s)\n",
                daemon.recoveredJobs());
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // The handler only sets a flag; the graceful drain runs on this thread.
  while (gSignalled == 0 && !daemon.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.requestShutdown();
  daemon.wait();
  std::printf("eplace_serve: shut down cleanly\n");
  return 0;
}
