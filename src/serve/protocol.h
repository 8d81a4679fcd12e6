// eplace_serve wire protocol: newline-delimited JSON over a local socket.
//
// Every request is ONE line (one JSON object, '\n'-terminated) and gets
// exactly one response line, except `watch`, which streams zero or more
// `{"event":...}` lines before its final response. Success responses are
// `{"ok":true, ...}`; failures are
// `{"ok":false,"error":"<StatusCode name>","code":<exit code>,
//   "message":"..."}` using the shared ep::Status taxonomy
// (util/status.h), so a client can map any daemon error onto the same exit
// codes the CLI uses. The full protocol reference lives in docs/SERVING.md.
//
// Requests:
//   {"op":"ping"}
//   {"op":"submit","job":{...JobSpec...}}        -> {"ok":true,"id":N}
//   {"op":"cancel","id":N}
//   {"op":"result","id":N}        non-blocking state/outcome probe
//   {"op":"wait","id":N,"timeout":sec}           -> outcome (blocks)
//   {"op":"watch","id":N}         streams progress events, then outcome
//   {"op":"stats"}                daemon counters snapshot
//   {"op":"shutdown"}             graceful drain, then exit
//
// This header also defines the journal schema: a queued job's JobSpec and a
// finished job's JobOutcome serialize through the same functions for the
// wire and for the durable job journal, so crash recovery replays exactly
// what the client submitted. HPWL travels as both a double and its IEEE-754
// bit pattern ("hpwl_bits", hex string) — the loadgen compares bit patterns
// to prove neighbor isolation, where an approximate compare would hide
// cross-job interference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/fault_injector.h"
#include "util/jsonlite.h"
#include "util/status.h"

namespace ep::serve {

/// Inline synthetic-circuit job payload (gen/generator.h subset). Jobs may
/// alternatively name a Bookshelf .aux file readable by the daemon.
struct GenJobSpec {
  std::uint64_t numCells = 800;
  std::uint64_t numMovableMacros = 0;
  std::uint64_t seed = 1;
};

/// One fault to arm on the job's own session context before placing.
struct InjectSpec {
  std::string site;
  FaultSpec spec;
};

struct JobSpec {
  std::string name;     ///< session/log name; defaults to "job_<id>"
  std::string auxPath;  ///< Bookshelf input; empty = use `gen`
  bool hasGen = false;
  GenJobSpec gen;
  int priority = 0;  ///< higher runs first; FIFO within a priority
  /// Wall-clock budget for the job (RuntimeContext deadline); <= 0 = none.
  double deadlineSeconds = 0.0;
  int threads = 1;  ///< session pool size (results identical for any value)
  /// GP iterations between durable mid-stage snapshots; 0 = daemon default.
  int saveEvery = 0;
  int gpMaxIterations = 0;  ///< 0 = flow default
  bool runDetail = true;
  /// Memory cap in MiB for the job's session (view/CSR build, arena
  /// growth, snapshot buffers, bin grid); 0 = unlimited. Gen jobs whose
  /// admission-time capacity estimate exceeds the cap are rejected
  /// kResourceExhausted at submit; a mid-run breach fails the job alone
  /// with the same typed status.
  std::uint64_t memBudgetMb = 0;
  std::vector<InjectSpec> injections;
};

/// Terminal record of one job, returned on the wire and persisted in the
/// results journal.
struct JobOutcome {
  std::uint64_t id = 0;
  std::string name;
  Status status;
  double finalHpwl = 0.0;
  std::uint64_t hpwlBits = 0;  ///< IEEE-754 pattern of finalHpwl
  bool legal = false;
  double wallSeconds = 0.0;       ///< place() wall time
  double queueWaitSeconds = 0.0;  ///< admission -> dispatch
  int retries = 0;     ///< supervisor attempts beyond the first, all stages
  int recoveries = 0;  ///< GP divergence rollbacks (mGP + cGP)
  bool resumed = false;  ///< continued from a durable snapshot
  /// High-water mark of the session's budget-metered bytes (view/CSR +
  /// arena + checkpoints + bin grid); reported even for uncapped jobs.
  std::uint64_t peakBytes = 0;
  /// Structured run record (util/run_record.h) of the completed placement,
  /// as JSON; null when the job never produced a placement. Round-trips
  /// through the result message and the results journal, so watch clients
  /// and `result` pollers both see it.
  JsonValue record;
};

struct Request {
  enum class Op : unsigned char {
    kPing,
    kSubmit,
    kCancel,
    kResult,
    kWait,
    kWatch,
    kStats,
    kShutdown,
  };
  Op op = Op::kPing;
  std::uint64_t id = 0;       ///< cancel/result/wait/watch target
  double timeoutSeconds = 0;  ///< wait bound; <= 0 = no bound
  JobSpec job;                ///< submit payload
};

/// Parses one request line. Enforces `maxBytes` (0 = unlimited) before
/// parsing so an oversized line is rejected in O(1); every failure is a
/// typed kInvalidInput, never a crash — this function is the fuzzer's
/// primary target.
StatusOr<Request> parseRequestLine(std::string_view line,
                                   std::size_t maxBytes = 0);

Status jobSpecFromJson(const JsonValue& v, JobSpec* out);
JsonValue jobSpecToJson(const JobSpec& spec);

JsonValue outcomeToJson(const JobOutcome& out);
Status outcomeFromJson(const JsonValue& v, JobOutcome* out);

/// `{"ok":true}` (callers add fields).
JsonValue okResponse();
/// `{"ok":false,"error":...,"code":...,"message":...}` from a Status.
JsonValue errorResponse(const Status& s);
/// Reverses errorResponse on the client: OK for `{"ok":true,...}`.
Status statusFromResponse(const JsonValue& v);

}  // namespace ep::serve
