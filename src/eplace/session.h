// PlacerSession — the embedding facade over the whole placer, and the
// concurrent multi-session batch API built on top of it.
//
// A session bundles one RuntimeContext (thread pool, fault injector, log
// sink, stats, deadline) with one PlacementDB and the flow configuration,
// exposing the load -> place -> inspect lifecycle as three calls. Because
// every kernel layer threads the context explicitly (no process globals),
// any number of sessions can run in the same process at once: each one
// logs under its own prefix, schedules work on its own pool, and keeps its
// armed faults to itself. Determinism is per-session — results are
// bit-identical whether sessions run sequentially or concurrently, and for
// any per-session thread cap (docs/PERFORMANCE.md).
//
// runPlacerBatch() places N circuits with at most K sessions in flight,
// work-stealing jobs from a shared queue and splitting a total thread
// budget across the active sessions. The CLI exposes it as
// `eplace_cli --batch <manifest> --sessions K`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "util/context.h"
#include "util/status.h"

namespace ep {

struct SessionOptions {
  /// Session name: log-line prefix and the default snapshot subdirectory
  /// under BatchOptions::snapshotRoot.
  std::string name;
  /// Worker threads for this session's pool; <= 0 = hardware concurrency.
  /// Results are bit-identical for any value (determinism contract).
  int threads = 0;
  /// Root RNG seed for RuntimeContext::nextSeed() consumers.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  LogLevel logLevel = LogLevel::kWarn;
  bool logTimestamps = true;
  /// Wall-clock deadline for the whole session, timed from construction;
  /// <= 0 = unbounded. The run's only wall-clock limit
  /// (RuntimeOptions::wallBudgetSeconds).
  double wallBudgetSeconds = 0.0;
  /// Memory cap in MiB for the session's big allocations (view/CSR build,
  /// arena growth, snapshot buffers, bin grid); 0 = unlimited. A breach is
  /// a typed kResourceExhausted outcome — the supervisor first degrades
  /// (coarser bin grid, reduced checkpoint retention), then fails cleanly.
  std::size_t memBudgetMb = 0;
  /// Policy selector: the `sup` policy (per-stage retries, fallbacks,
  /// durable snapshots) when true, plainPolicy() when false.
  bool supervised = false;
  FlowConfig flow;
  SupervisorConfig sup;  ///< used only when `supervised`
};

/// One placer runtime: owns the context and the instance, runs the flow.
/// Not thread-safe itself (one driver thread per session); safe to run any
/// number of sessions on different threads concurrently.
class PlacerSession {
 public:
  explicit PlacerSession(SessionOptions opt = {});
  PlacerSession(const PlacerSession&) = delete;
  PlacerSession& operator=(const PlacerSession&) = delete;

  /// Loads a Bookshelf instance (`<design>.aux`) into the session.
  Status load(const std::string& auxPath);
  /// Adopts an already-built instance instead (takes ownership). The DB is
  /// finalized here if the caller has not done so.
  Status adopt(PlacementDB db);

  /// Runs the flow on the loaded instance under the selected policy.
  /// Degradation is reported in FlowResult::status (see runSupervisedFlow).
  StatusOr<FlowResult> place();

  [[nodiscard]] PlacementDB& db() { return db_; }
  [[nodiscard]] const PlacementDB& db() const { return db_; }
  /// Last successful place() result; nullptr before that.
  [[nodiscard]] const FlowResult* result() const {
    return hasResult_ ? &result_ : nullptr;
  }
  /// Per-stage story of the last place().
  [[nodiscard]] const SupervisorReport& report() const { return report_; }
  /// Structured run record of the last successful place(); nullptr before
  /// that. Serialize with writeRunRecord()/writeRunRecordFile().
  [[nodiscard]] const RunRecord* record() const {
    return hasResult_ ? &record_ : nullptr;
  }
  /// The session's runtime (arm faults, read stats, adjust log level).
  [[nodiscard]] RuntimeContext& context() { return ctx_; }
  [[nodiscard]] const SessionOptions& options() const { return opt_; }

 private:
  SessionOptions opt_;
  RuntimeContext ctx_;
  PlacementDB db_;
  bool loaded_ = false;
  bool hasResult_ = false;
  FlowResult result_;
  SupervisorReport report_;
  RunRecord record_;
};

// --- concurrent batch ------------------------------------------------------

struct BatchItem {
  std::string auxPath;
  /// Session name; empty derives it from the aux file stem.
  std::string name;
};

struct BatchOptions {
  /// Sessions in flight at once (the work-stealing slot count). Jobs beyond
  /// this queue up and are claimed as slots free.
  int maxConcurrentSessions = 2;
  /// Total worker threads split evenly across the concurrent sessions
  /// (each gets max(1, total/K)); <= 0 keeps `session.threads` per session.
  /// Either way results are bit-identical to a sequential run.
  int totalThreads = 0;
  /// Template for every session; `name`, `threads` and the snapshot
  /// directory are overridden per item.
  SessionOptions session;
  /// When set, each session checkpoints under `<snapshotRoot>/<name>`
  /// (implies supervised); keeps concurrent snapshot streams collision-free.
  std::string snapshotRoot;
};

struct BatchItemResult {
  std::string name;
  Status status;    ///< load/validate failures; OK covers degraded flows
  FlowResult flow;  ///< valid when status.ok()
  RunRecord record;  ///< valid when status.ok()
  double seconds = 0.0;
};

struct BatchResult {
  std::vector<BatchItemResult> items;  ///< one per input, input order
  double totalSeconds = 0.0;
  [[nodiscard]] bool allOk() const {
    for (const auto& r : items) {
      if (!r.status.ok()) return false;
    }
    return true;
  }
};

/// Places every item with at most `maxConcurrentSessions` sessions in
/// flight. Results land in input order regardless of completion order.
BatchResult runPlacerBatch(const std::vector<BatchItem>& items,
                           const BatchOptions& opt = {});

}  // namespace ep
