#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bookshelf/bookshelf.h"
#include "density/bingrid.h"
#include "eplace/session.h"
#include "model/capacity.h"
#include "gen/generator.h"
#include "serve/journal.h"
#include "serve/queue.h"
#include "util/context.h"
#include "util/io.h"

namespace ep::serve {

namespace {

constexpr int kPollMillis = 100;

/// write() the whole line + '\n'; MSG_NOSIGNAL so a vanished client gives
/// EPIPE instead of killing the daemon.
bool sendLine(int fd, const std::string& line) {
  std::string buf = line;
  buf += '\n';
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool sendJson(int fd, const JsonValue& v) { return sendLine(fd, writeJson(v)); }

/// Admission-time capacity estimate (bytes) for an instance of n objects.
/// Deliberately conservative-but-loose: linear terms only, sized to catch
/// order-of-magnitude mismatches, not to shave the last MiB.
std::size_t estimateInstanceBytes(std::size_t n) {
  // View geometry + CSR (~28 doubles/object at average pin degree ~4) plus
  // Nesterov state and arena scratch over movables + fillers (~2x objects).
  const std::size_t perObject = 40 * sizeof(double);
  const std::size_t m = BinGrid::chooseResolution(2 * n);
  const std::size_t grid = m * m * sizeof(double) * 8;  // density planes
  return n * perObject + grid + (std::size_t{1} << 20);  // +1 MiB fixed
}

/// A gen job names its cell count in the spec, so the daemon can reject a
/// job whose mem_budget_mb cannot possibly hold the placement state at
/// submit instead of burning a worker slot on a guaranteed mid-run breach.
std::size_t estimateJobBytes(const GenJobSpec& gen) {
  return estimateInstanceBytes(
      static_cast<std::size_t>(gen.numCells + gen.numMovableMacros));
}

/// Aux (Bookshelf) jobs learn their size from the counting pass
/// (scanBookshelfCounts): headers only, O(1) memory, no fault-injection
/// sites consumed, cheap enough for the submit path. The structural
/// capacity plan (model/capacity.h) prices the parsed instance; the
/// optimizer terms come from the same model as gen jobs. Returns 0 when
/// the scan or plan fails — the job is admitted and fails at load with
/// the real typed error, exactly as an unbudgeted submit would.
std::size_t estimateAuxJobBytes(const std::string& auxPath,
                                RuntimeContext& ctx) {
  const auto counts = scanBookshelfCounts(auxPath, ctx);
  if (!counts.ok()) return 0;
  const auto plan = planCapacity(
      {counts->objects, counts->nets, counts->pins, counts->rows});
  if (!plan.ok()) return 0;
  return plan->totalBytes() + estimateInstanceBytes(counts->objects);
}

enum class JobState : unsigned char { kQueued, kRunning, kDone };

struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  bool recovered = false;        ///< re-admitted from the journal
  bool preempted = false;        ///< shutdown drain hit; journal retained
  bool cancelRequested = false;  ///< client cancel seen
  double enqueuedAt = 0.0;       ///< daemon clock seconds
  RuntimeContext* ctx = nullptr; ///< live only while running
  JobOutcome outcome;            ///< valid once kDone
  std::vector<std::string> events;  ///< serialized watcher lines
};

}  // namespace

struct ServeDaemon::Impl {
  ServeOptions opt;
  RuntimeContext ctx;
  JobStore store;
  AdmissionQueue queue;

  std::atomic<bool> stopping{false};
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  int listenFd = -1;

  std::mutex mu;  ///< guards jobs, nextId; cv broadcasts every change
  std::condition_variable cv;
  std::map<std::uint64_t, JobRecord> jobs;
  std::uint64_t nextId = 1;
  int recovered = 0;

  std::thread acceptor;
  std::vector<std::thread> workers;
  std::mutex connMu;
  std::vector<std::thread> conns;

  explicit Impl(ServeOptions o)
      : opt(std::move(o)),
        ctx([&] {
          RuntimeOptions ro;
          ro.threads = 1;  // the daemon itself never runs kernels
          ro.logPrefix = "serve";
          ro.logLevel = opt.logLevel;
          ro.logTimestamps = opt.logTimestamps;
          return ro;
        }()),
        store(opt.root),
        queue(static_cast<std::size_t>(std::max(1, opt.queueCapacity))) {
    // Journal/result writes go through the daemon context's io.* fault
    // sites, so storage-fault containment on the durability path is
    // testable end to end.
    store.setFaults(&ctx.faults());
  }

  // --- job table helpers ---------------------------------------------------

  void addEventLocked(JobRecord& r, const char* what, const JsonValue* extra) {
    JsonValue ev = JsonValue::object();
    ev.set("event", JsonValue::str(what));
    ev.set("id", JsonValue::number(static_cast<double>(r.id)));
    if (extra != nullptr) {
      for (const auto& [k, v] : extra->members()) ev.set(k, v);
    }
    r.events.push_back(writeJson(ev));
  }

  void addEvent(std::uint64_t id, const char* what,
                const JsonValue* extra = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it == jobs.end()) return;
      addEventLocked(it->second, what, extra);
    }
    cv.notify_all();
  }

  /// Finishes a job that was cancelled before any session started: a
  /// durable kCancelled result replaces its pending entry.
  void finishUnstarted(std::uint64_t id, const std::string& name,
                       const char* why, double queueWait) {
    JobOutcome out;
    out.id = id;
    out.name = name;
    out.status = Status::cancelled(why);
    out.queueWaitSeconds = queueWait;
    (void)store.writeResult(out);
    store.removePending(id);
    finishJob(id, out);
  }

  /// Moves a record to kDone and records its outcome in the stats registry
  /// (satellite: per-job telemetry, dumped on shutdown).
  void finishJob(std::uint64_t id, JobOutcome outcome) {
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it == jobs.end()) return;
      JobRecord& r = it->second;
      r.state = JobState::kDone;
      r.ctx = nullptr;
      r.outcome = outcome;
      JsonValue extra = JsonValue::object();
      extra.set("status",
                JsonValue::str(statusCodeName(outcome.status.code())));
      addEventLocked(r, "done", &extra);
    }
    cv.notify_all();
    StatsRegistry& st = ctx.stats();
    switch (outcome.status.code()) {
      case StatusCode::kOk:
        st.add("serve.jobs.done.ok", 1);
        break;
      case StatusCode::kCancelled:
        st.add("serve.jobs.done.cancelled", 1);
        break;
      default:
        st.add("serve.jobs.done.failed", 1);
        break;
    }
    st.add("serve.jobs.wallSeconds", outcome.wallSeconds);
    st.add("serve.jobs.queueWaitSeconds", outcome.queueWaitSeconds);
    st.add("serve.jobs.retries", outcome.retries);
    st.add("serve.jobs.recoveries", outcome.recoveries);
    if (outcome.resumed) st.add("serve.jobs.resumedRuns", 1);
    st.add("serve.jobs.peakBytes",
           static_cast<double>(outcome.peakBytes));
    if (outcome.status.code() == StatusCode::kResourceExhausted) {
      st.add("serve.jobs.done.resourceExhausted", 1);
    }
  }

  // --- the job worker ------------------------------------------------------

  void workerLoop() {
    std::uint64_t id = 0;
    while (queue.pop(&id)) runJob(id);
  }

  void runJob(std::uint64_t id) {
    JobSpec spec;
    bool recoveredJob = false;
    bool cancelledEarly = false;
    double queueWait = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it == jobs.end()) return;
      JobRecord& r = it->second;
      if (r.preempted) return;  // shutdown already journaled this for resume
      spec = r.spec;
      recoveredJob = r.recovered;
      queueWait = std::max(0.0, ctx.elapsedSeconds() - r.enqueuedAt);
      // A cancel can land between queue.pop() and this claim; honor it
      // without spinning up a session.
      cancelledEarly = r.cancelRequested;
      if (!cancelledEarly) r.state = JobState::kRunning;
    }
    if (spec.name.empty()) {
      spec.name = "job_" + std::to_string(id);
    }
    if (cancelledEarly) {
      finishUnstarted(id, spec.name, "cancelled before dispatch", queueWait);
      return;
    }
    addEvent(id, "started");

    SessionOptions so;
    so.name = spec.name;
    so.threads = spec.threads;
    so.logLevel = opt.logLevel;
    so.logTimestamps = opt.logTimestamps;
    so.wallBudgetSeconds = spec.deadlineSeconds;
    so.memBudgetMb = static_cast<std::size_t>(spec.memBudgetMb);
    so.supervised = true;
    so.sup.snapshotDir = store.snapshotDirFor(id);
    if (recoveredJob) so.sup.resumeDir = so.sup.snapshotDir;
    so.sup.saveEvery =
        spec.saveEvery > 0 ? spec.saveEvery : opt.defaultSaveEvery;
    so.sup.onProgress = [this, id](const SupervisorEvent& ev) {
      JsonValue extra = JsonValue::object();
      extra.set("stage", JsonValue::str(flowStageName(ev.stage)));
      if (ev.kind == SupervisorEvent::Kind::kStageFinish) {
        extra.set("attempts", JsonValue::number(ev.attempts));
        extra.set("seconds", JsonValue::number(ev.seconds));
        extra.set("status",
                  JsonValue::str(statusCodeName(ev.status.code())));
        if (ev.fellBack) extra.set("fell_back", JsonValue::boolean(true));
      }
      if (ev.kind == SupervisorEvent::Kind::kSnapshot) {
        extra.set("seq", JsonValue::number(ev.snapshotSeq));
      }
      addEvent(id, supervisorEventKindName(ev.kind), &extra);
    };
    if (spec.gpMaxIterations > 0) {
      so.flow.gp.maxIterations = spec.gpMaxIterations;
    }
    so.flow.runDetail = spec.runDetail;

    Timer wall;
    PlacerSession session(so);
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it != jobs.end()) {
        it->second.ctx = &session.context();
        // Cancel raced session construction: arm the token now so the flow
        // stops at its first safe point.
        if (it->second.cancelRequested) {
          session.context().requestCancel("cancelled by client");
        }
      }
    }
    for (const InjectSpec& inj : spec.injections) {
      session.context().faults().arm(inj.site, inj.spec);
    }

    JobOutcome out;
    out.id = id;
    out.name = spec.name;
    out.queueWaitSeconds = queueWait;
    Status loadStatus;
    if (!spec.auxPath.empty()) {
      loadStatus = session.load(spec.auxPath);
    } else {
      GenSpec gs;
      gs.name = spec.name;
      gs.numCells = static_cast<std::size_t>(spec.gen.numCells);
      gs.numMovableMacros =
          static_cast<std::size_t>(spec.gen.numMovableMacros);
      gs.seed = spec.gen.seed;
      loadStatus = session.adopt(generateCircuit(gs));
    }
    if (!loadStatus.ok()) {
      out.status = loadStatus;
    } else {
      const StatusOr<FlowResult> res = session.place();
      if (!res.ok()) {
        out.status = res.status();
      } else {
        out.status = res->status;
        out.finalHpwl = res->finalHpwl;
        out.hpwlBits = std::bit_cast<std::uint64_t>(res->finalHpwl);
        out.legal = res->legality.legal;
        out.recoveries =
            res->mgpResult.recoveries + res->cgpResult.recoveries;
        if (session.record() != nullptr) {
          out.record = runRecordToJson(*session.record());
        }
      }
      for (const StageReport& sr : session.report().stages) {
        out.retries += std::max(0, sr.attempts - 1);
      }
      out.resumed = session.report().resumed;
    }
    out.peakBytes = session.context().memory().peakBytes();
    out.wallSeconds = wall.seconds();

    bool preempted = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it != jobs.end()) {
        it->second.ctx = nullptr;
        preempted = it->second.preempted;
      }
    }
    if (preempted && out.status.code() == StatusCode::kCancelled) {
      // Shutdown preemption: no result, journal retained — the next start
      // re-admits this job and its snapshot stream finishes it bit-exactly.
      ctx.stats().add("serve.jobs.preempted", 1);
      ctx.log().info("job %llu preempted at shutdown; will resume",
                     static_cast<unsigned long long>(id));
      finishJob(id, out);
      return;
    }
    const Status wr = store.writeResult(out);
    if (!wr.ok()) {
      ctx.log().error("job %llu result write failed: %s",
                      static_cast<unsigned long long>(id),
                      wr.toString().c_str());
    } else {
      store.removePending(id);
    }
    finishJob(id, out);
  }

  // --- request handling ----------------------------------------------------

  JsonValue handleSubmit(JobSpec spec) {
    if (stopping.load()) {
      ctx.stats().add("serve.jobs.rejected.unavailable", 1);
      return errorResponse(Status::unavailable("daemon is shutting down"));
    }
    if (ctx.faults().fire("serve.accept") != nullptr) {
      ctx.stats().add("serve.faults.accept", 1);
      ctx.stats().add("serve.jobs.rejected.unavailable", 1);
      return errorResponse(
          Status::unavailable("admission fault injected (serve.accept)"));
    }
    // Capacity check at admission: a gen job's size is known from its
    // spec, an aux job's from the Bookshelf counting pass, so an
    // impossible mem_budget_mb is a submit-time rejection, not a
    // worker-slot-burning mid-run breach.
    if (spec.memBudgetMb > 0) {
      const std::size_t need = spec.auxPath.empty()
                                   ? estimateJobBytes(spec.gen)
                                   : estimateAuxJobBytes(spec.auxPath, ctx);
      const std::size_t cap =
          static_cast<std::size_t>(spec.memBudgetMb) << 20;
      if (need > cap) {
        ctx.stats().add("serve.jobs.rejected.mem", 1);
        return errorResponse(Status::resourceExhausted(
            "job needs an estimated " +
            std::to_string((need + (1 << 20) - 1) >> 20) +
            " MiB but mem_budget_mb grants " +
            std::to_string(spec.memBudgetMb) +
            " MiB; raise the budget or shrink the job"));
      }
    }
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      id = nextId++;
      JobRecord r;
      r.id = id;
      if (spec.name.empty()) spec.name = "job_" + std::to_string(id);
      r.spec = spec;
      r.enqueuedAt = ctx.elapsedSeconds();
      JobRecord& slot = jobs.emplace(id, std::move(r)).first->second;
      addEventLocked(slot, "queued", nullptr);
    }
    // Journal BEFORE ack: an acknowledged job survives any crash. A
    // failed journal write (disk fault, ENOSPC) rejects THIS submit with
    // kUnavailable — the durability invariant is never weakened to "maybe
    // journaled" — while the daemon itself stays healthy for retries.
    const Status js = store.writePending(id, spec);
    if (!js.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu);
        jobs.erase(id);
      }
      ctx.stats().add("serve.jobs.rejected.journal", 1);
      ctx.log().error("journal write failed for submit: %s",
                      js.toString().c_str());
      return errorResponse(Status::unavailable(
          "journal write failed (" + js.message() + "); submit again"));
    }
    const Status qs = queue.tryPush(id, spec.priority);
    if (!qs.ok()) {
      store.removePending(id);
      {
        std::lock_guard<std::mutex> lock(mu);
        jobs.erase(id);
      }
      ctx.stats().add("serve.jobs.rejected.full", 1);
      return errorResponse(qs);
    }
    ctx.stats().add("serve.jobs.accepted", 1);
    JsonValue resp = okResponse();
    resp.set("id", JsonValue::number(static_cast<double>(id)));
    resp.set("queued", JsonValue::number(static_cast<double>(queue.size())));
    return resp;
  }

  JsonValue handleCancel(std::uint64_t id) {
    ctx.stats().add("serve.cancel.requests", 1);
    bool eraseFromQueue = false;
    double queueWait = 0.0;
    std::string name;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it == jobs.end()) {
        return errorResponse(
            Status::invalidInput("unknown job id " + std::to_string(id)));
      }
      JobRecord& r = it->second;
      if (r.state == JobState::kDone) {
        JsonValue resp = okResponse();
        resp.set("state", JsonValue::str("done"));
        resp.set("cancelled", JsonValue::boolean(false));
        return resp;
      }
      r.cancelRequested = true;
      if (r.state == JobState::kQueued) {
        eraseFromQueue = true;
        queueWait = std::max(0.0, ctx.elapsedSeconds() - r.enqueuedAt);
        name = r.spec.name.empty() ? "job_" + std::to_string(id)
                                   : r.spec.name;
      } else if (r.ctx != nullptr) {
        r.ctx->requestCancel("cancelled by client");
      }
    }
    cv.notify_all();
    if (eraseFromQueue && queue.tryErase(id)) {
      // Still queued: terminal immediately, no session ever starts.
      finishUnstarted(id, name, "cancelled while queued", queueWait);
    }
    // If tryErase lost the race the worker sees cancelRequested at claim
    // time (or the context token mid-flow) and finishes it as cancelled.
    JsonValue resp = okResponse();
    resp.set("cancelled", JsonValue::boolean(true));
    return resp;
  }

  /// The terminal reply of result/wait/watch: `{ok, state: "done", result}`.
  static JsonValue doneResponse(const JobOutcome& out) {
    JsonValue resp = okResponse();
    resp.set("state", JsonValue::str("done"));
    resp.set("result", outcomeToJson(out));
    return resp;
  }

  JsonValue handleResult(std::uint64_t id) {
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it != jobs.end()) {
        const JobRecord& r = it->second;
        if (r.state == JobState::kDone) return doneResponse(r.outcome);
        JsonValue resp = okResponse();
        resp.set("state", JsonValue::str(r.state == JobState::kQueued
                                             ? "queued"
                                             : "running"));
        return resp;
      }
    }
    // Not in this daemon's table: maybe a previous run finished it.
    const StatusOr<JobOutcome> prev = store.readResult(id);
    if (prev.ok()) return doneResponse(*prev);
    return errorResponse(
        Status::invalidInput("unknown job id " + std::to_string(id)));
  }

  JsonValue handleWait(std::uint64_t id, double timeoutSeconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeoutSeconds > 0 ? timeoutSeconds
                                                         : 3600.0);
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
      lock.unlock();
      return handleResult(id);  // finished in a previous daemon run?
    }
    while (it->second.state != JobState::kDone) {
      if (stopping.load()) {
        return errorResponse(
            Status::unavailable("daemon is shutting down"));
      }
      if (cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        return errorResponse(Status::timeout(
            "job " + std::to_string(id) + " not finished within the wait "
            "timeout"));
      }
    }
    return doneResponse(it->second.outcome);
  }

  /// Streams buffered + live progress events, then the final result line.
  /// Returns false when the client went away.
  bool handleWatch(int fd, std::uint64_t id) {
    std::size_t cursor = 0;
    while (true) {
      std::vector<std::string> fresh;
      bool done = false;
      JsonValue closing;
      {
        std::unique_lock<std::mutex> lock(mu);
        const auto it = jobs.find(id);
        if (it == jobs.end()) {
          lock.unlock();
          return sendJson(fd, handleResult(id));
        }
        cv.wait_for(lock, std::chrono::milliseconds(kPollMillis), [&] {
          return it->second.events.size() > cursor ||
                 it->second.state == JobState::kDone || stopping.load();
        });
        const JobRecord& r = it->second;
        fresh.assign(r.events.begin() + static_cast<long>(cursor),
                     r.events.end());
        cursor = r.events.size();
        if (r.state == JobState::kDone) {
          done = true;
          closing = doneResponse(r.outcome);
        } else if (stopping.load()) {
          done = true;
          closing = errorResponse(
              Status::unavailable("daemon is shutting down"));
        }
      }
      for (const std::string& line : fresh) {
        if (!sendLine(fd, line)) return false;
      }
      if (done) return sendJson(fd, closing);
    }
  }

  JsonValue handleStats() {
    JsonValue resp = okResponse();
    resp.set("queue_depth",
             JsonValue::number(static_cast<double>(queue.size())));
    resp.set("queue_capacity",
             JsonValue::number(static_cast<double>(queue.capacity())));
    resp.set("workers", JsonValue::number(opt.workers));
    resp.set("recovered", JsonValue::number(recovered));
    resp.set("uptime_seconds", JsonValue::number(ctx.elapsedSeconds()));
    JsonValue counters = JsonValue::object();
    for (const auto& [name, value] : ctx.stats().snapshot()) {
      counters.set(name, JsonValue::number(value));
    }
    resp.set("counters", std::move(counters));
    return resp;
  }

  /// One request line -> one response (watch streams first). Returns false
  /// when the connection should close.
  bool handleLine(int fd, std::string line) {
    // The serve.request fault corrupts the raw line BEFORE parsing: a bit
    // flip or truncation must yield a typed rejection, never a crash.
    if (ctx.faults().active()) {
      if (const FaultSpec* spec = ctx.faults().fire("serve.request")) {
        ctx.stats().add("serve.faults.request", 1);
        if (spec->kind == FaultKind::kTruncate) {
          line.resize(line.size() / 2);
        } else if (!line.empty()) {
          ctx.faults().corruptBytes(
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(line.data()), line.size()),
              *spec);
        }
      }
    }
    const StatusOr<Request> parsed =
        parseRequestLine(line, opt.maxRequestBytes);
    if (!parsed.ok()) {
      ctx.stats().add("serve.requests.rejected", 1);
      return sendJson(fd, errorResponse(parsed.status()));
    }
    ctx.stats().add("serve.requests.accepted", 1);
    const Request& req = *parsed;
    switch (req.op) {
      case Request::Op::kPing: {
        JsonValue resp = okResponse();
        resp.set("pong", JsonValue::boolean(true));
        return sendJson(fd, resp);
      }
      case Request::Op::kSubmit:
        return sendJson(fd, handleSubmit(req.job));
      case Request::Op::kCancel:
        return sendJson(fd, handleCancel(req.id));
      case Request::Op::kResult:
        return sendJson(fd, handleResult(req.id));
      case Request::Op::kWait:
        return sendJson(fd, handleWait(req.id, req.timeoutSeconds));
      case Request::Op::kWatch:
        return handleWatch(fd, req.id);
      case Request::Op::kStats:
        return sendJson(fd, handleStats());
      case Request::Op::kShutdown: {
        sendJson(fd, okResponse());
        ctx.log().info("shutdown requested over the wire");
        requestShutdownImpl();
        return false;
      }
    }
    return false;
  }

  void connectionLoop(int fd) {
    std::string buf;
    char chunk[4096];
    while (!stopping.load()) {
      pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, kPollMillis);
      if (pr < 0 && errno != EINTR) break;
      if (pr <= 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n == 0) break;  // client closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      // Oversized line with no newline yet: framing is unrecoverable, so
      // reject once and drop the connection.
      if (buf.size() > opt.maxRequestBytes &&
          buf.find('\n') == std::string::npos) {
        ctx.stats().add("serve.requests.rejected", 1);
        sendJson(fd, errorResponse(Status::invalidInput(
                         "request line exceeds " +
                         std::to_string(opt.maxRequestBytes) + " bytes")));
        break;
      }
      bool keep = true;
      std::size_t start = 0;
      while (keep) {
        const std::size_t nl = buf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = buf.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        start = nl + 1;
        if (line.empty()) continue;
        keep = handleLine(fd, std::move(line));
      }
      buf.erase(0, start);
      if (!keep) break;
    }
    ::close(fd);
  }

  void acceptLoop() {
    while (!stopping.load()) {
      pollfd pfd{listenFd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, kPollMillis);
      if (pr < 0 && errno != EINTR) break;
      if (pr <= 0) continue;
      const int fd = ::accept(listenFd, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lock(connMu);
      conns.emplace_back([this, fd] { connectionLoop(fd); });
    }
  }

  // --- lifecycle -----------------------------------------------------------

  Status start() {
    Status s = store.init();
    if (!s.ok()) return s;
    // Re-admit every acknowledged-but-unfinished job from the journal.
    int corrupt = 0;
    const auto pending = store.recoverPending(&corrupt);
    if (corrupt > 0) {
      ctx.log().warn("job journal: %d unreadable entr%s skipped", corrupt,
                     corrupt == 1 ? "y" : "ies");
    }
    nextId = store.maxJobId() + 1;
    for (const JobStore::PendingJob& p : pending) {
      JobRecord r;
      r.id = p.id;
      r.spec = p.spec;
      r.recovered = true;
      r.enqueuedAt = ctx.elapsedSeconds();
      {
        std::lock_guard<std::mutex> lock(mu);
        JobRecord& slot = jobs.emplace(p.id, std::move(r)).first->second;
        addEventLocked(slot, "recovered", nullptr);
      }
      queue.pushRecovered(p.id, p.spec.priority);
      ++recovered;
    }
    if (recovered > 0) {
      ctx.stats().add("serve.jobs.recovered", recovered);
      ctx.log().info("recovered %d unfinished job(s) from the journal",
                     recovered);
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.socketPath.empty() ||
        opt.socketPath.size() >= sizeof(addr.sun_path)) {
      return Status::invalidInput("socket path empty or longer than " +
                                  std::to_string(sizeof(addr.sun_path) - 1) +
                                  " bytes");
    }
    std::memcpy(addr.sun_path, opt.socketPath.c_str(),
                opt.socketPath.size() + 1);
    ::unlink(opt.socketPath.c_str());  // stale socket from a crashed run
    listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd < 0) return Status::ioError("socket() failed");
    if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(listenFd);
      listenFd = -1;
      return Status::ioError("cannot bind " + opt.socketPath);
    }
    if (::listen(listenFd, 64) != 0) {
      ::close(listenFd);
      listenFd = -1;
      return Status::ioError("cannot listen on " + opt.socketPath);
    }
    const int nWorkers = std::max(1, opt.workers);
    workers.reserve(static_cast<std::size_t>(nWorkers));
    for (int i = 0; i < nWorkers; ++i) {
      workers.emplace_back([this] { workerLoop(); });
    }
    acceptor = std::thread([this] { acceptLoop(); });
    started.store(true);
    ctx.log().info("serving on %s (root %s, %d worker(s), queue cap %zu)",
                   opt.socketPath.c_str(), opt.root.c_str(), nWorkers,
                   queue.capacity());
    return Status::okStatus();
  }

  void requestShutdownImpl() {
    if (stopping.exchange(true)) return;
    cv.notify_all();
  }

  [[nodiscard]] int runningCountLocked() const {
    int n = 0;
    for (const auto& [id, r] : jobs) {
      if (r.state == JobState::kRunning) ++n;
    }
    return n;
  }

  void waitImpl() {
    if (!started.load() || finished.exchange(true)) return;
    // Block until someone asks us to stop, then run the drain protocol.
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return stopping.load(); });
    }
    if (acceptor.joinable()) acceptor.join();
    {
      std::lock_guard<std::mutex> lock(connMu);
      for (std::thread& t : conns) {
        if (t.joinable()) t.join();
      }
      conns.clear();
    }
    // Stop dispatch. Jobs still queued stay journaled (no result file), so
    // the next start re-admits them; mark their records preempted so
    // in-process waiters get a typed answer. One lock for the whole sweep:
    // a worker claiming concurrently either beat us (state kRunning, it
    // drains below) or sees `preempted` at claim time and leaves the job
    // for the next start.
    queue.close();
    int preemptedQueued = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [id, r] : jobs) {
        if (r.state != JobState::kQueued) continue;
        r.preempted = true;
        r.state = JobState::kDone;
        r.outcome.id = id;
        r.outcome.name = r.spec.name;
        r.outcome.status =
            Status::cancelled("preempted by shutdown while queued; the next "
                              "daemon start resumes this job");
        JsonValue extra = JsonValue::object();
        extra.set("status", JsonValue::str("Cancelled"));
        addEventLocked(r, "done", &extra);
        ++preemptedQueued;
      }
    }
    cv.notify_all();
    if (preemptedQueued > 0) {
      ctx.stats().add("serve.jobs.preempted", preemptedQueued);
    }
    // Drain window for running jobs.
    const Timer drain;
    while (drain.seconds() < std::max(0.0, opt.drainSeconds)) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (runningCountLocked() == 0) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Past the deadline: checkpoint-and-abort. The cancel token stops each
    // flow at its next safe point; journals survive for resume.
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [id, r] : jobs) {
        if (r.state != JobState::kRunning) continue;
        r.preempted = true;
        if (r.ctx != nullptr) {
          r.ctx->requestCancel("preempted by shutdown drain deadline");
        }
        ctx.log().warn("job %llu preempted at the drain deadline",
                       static_cast<unsigned long long>(id));
      }
    }
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
    workers.clear();
    if (listenFd >= 0) {
      ::close(listenFd);
      listenFd = -1;
    }
    ::unlink(opt.socketPath.c_str());
    dumpStats();
  }

  void dumpStats() {
    JsonValue v = JsonValue::object();
    v.set("uptime_seconds", JsonValue::number(ctx.elapsedSeconds()));
    for (const auto& [name, value] : ctx.stats().snapshot()) {
      v.set(name, JsonValue::number(value));
    }
    const std::string path = opt.root + "/serve_stats.json";
    const Status ws =
        io::writeFileDurably(path, writeJson(v) + "\n", &ctx.faults());
    if (!ws.ok()) {
      ctx.log().warn("stats dump to %s failed: %s", path.c_str(),
                     ws.toString().c_str());
    }
    ctx.log().info("shutdown: %.0f accepted, %.0f ok, %.0f failed, %.0f "
                   "cancelled, %.0f preempted, %.0f rejected-full",
                   ctx.stats().value("serve.jobs.accepted"),
                   ctx.stats().value("serve.jobs.done.ok"),
                   ctx.stats().value("serve.jobs.done.failed"),
                   ctx.stats().value("serve.jobs.done.cancelled"),
                   ctx.stats().value("serve.jobs.preempted"),
                   ctx.stats().value("serve.jobs.rejected.full"));
  }
};

ServeDaemon::ServeDaemon(ServeOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt))) {}

ServeDaemon::~ServeDaemon() {
  requestShutdown();
  wait();
}

Status ServeDaemon::start() { return impl_->start(); }

void ServeDaemon::requestShutdown() { impl_->requestShutdownImpl(); }

bool ServeDaemon::stopping() const { return impl_->stopping.load(); }

void ServeDaemon::wait() { impl_->waitImpl(); }

RuntimeContext& ServeDaemon::context() { return impl_->ctx; }

int ServeDaemon::recoveredJobs() const { return impl_->recovered; }

const ServeOptions& ServeDaemon::options() const { return impl_->opt; }

}  // namespace ep::serve
