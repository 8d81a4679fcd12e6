// End-to-end daemon tests over a real AF_UNIX socket: bit-exact parity with
// solo runs, cooperative cancel, per-job fault isolation, bounded admission,
// malformed-input survival, daemon-level fault sites, graceful drain,
// preempt-at-drain-deadline resume, and the headline crash test — SIGKILL
// the eplace_serve subprocess mid-batch, restart on the same state root, and
// require the interrupted jobs to finish bit-identically to never-killed
// runs. Socket paths stay short (sun_path is ~100 bytes).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "eplace/session.h"
#include "gen/generator.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "util/fault_injector.h"
#include "util/run_record.h"
#include "util/status.h"

namespace fs = std::filesystem;
using namespace ep;
using namespace ep::serve;

namespace {

constexpr int kCells = 220;
constexpr int kIters = 40;
constexpr std::uint64_t kSeed = 11;

/// Solo oracle with EXACTLY the daemon job's placement configuration.
std::uint64_t soloBits(std::uint64_t seed = kSeed, int iters = kIters) {
  SessionOptions so;
  so.name = "solo";
  so.threads = 1;
  so.logLevel = LogLevel::kOff;
  so.supervised = true;
  so.flow.gp.maxIterations = iters;
  so.flow.runDetail = false;
  PlacerSession session(so);
  GenSpec gs;
  gs.name = "solo";
  gs.numCells = kCells;
  gs.seed = seed;
  EXPECT_TRUE(session.adopt(generateCircuit(gs)).ok());
  auto res = session.place();
  EXPECT_TRUE(res.ok());
  return std::bit_cast<std::uint64_t>(res->finalHpwl);
}

JobSpec cleanJob(const std::string& name, std::uint64_t seed = kSeed,
                 int iters = kIters) {
  JobSpec spec;
  spec.name = name;
  spec.hasGen = true;
  spec.gen.numCells = kCells;
  spec.gen.seed = seed;
  spec.gpMaxIterations = iters;
  spec.runDetail = false;
  return spec;
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    root_ = "/tmp/ep_sd_" + name;
    sock_ = "/tmp/ep_sd_" + name + ".sock";
    fs::remove_all(root_);
    fs::remove(sock_);
  }
  void TearDown() override {
    fs::remove_all(root_);
    fs::remove(sock_);
  }

  ServeOptions baseOptions() {
    ServeOptions opt;
    opt.socketPath = sock_;
    opt.root = root_;
    opt.workers = 2;
    opt.logLevel = LogLevel::kOff;
    return opt;
  }

  std::string root_;
  std::string sock_;
};

}  // namespace

TEST_F(ServeDaemonTest, SubmitWaitBitExactVsSolo) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  ASSERT_TRUE(client.ping().ok());

  auto id1 = client.submit(cleanJob("a"));
  auto id2 = client.submit(cleanJob("b"));
  ASSERT_TRUE(id1.ok() && id2.ok());
  auto out1 = client.wait(*id1, 300.0);
  auto out2 = client.wait(*id2, 300.0);
  ASSERT_TRUE(out1.ok()) << out1.status().toString();
  ASSERT_TRUE(out2.ok()) << out2.status().toString();
  EXPECT_TRUE(out1->status.ok());
  const std::uint64_t solo = soloBits();
  EXPECT_EQ(out1->hpwlBits, solo);
  EXPECT_EQ(out2->hpwlBits, solo);
  EXPECT_GT(out1->wallSeconds, 0.0);
  EXPECT_FALSE(out1->resumed);

  // Every successful outcome carries a schema-valid RunRecord that survived
  // the wire round-trip; its deterministic fields agree with the outcome.
  ASSERT_TRUE(out1->record.isObject());
  RunRecord rec;
  const Status recSt = runRecordFromJson(out1->record, &rec);
  ASSERT_TRUE(recSt.ok()) << recSt.toString();
  EXPECT_EQ(rec.name, "a");
  EXPECT_EQ(rec.finalHpwlBits, solo);
  EXPECT_TRUE(rec.supervised);  // daemon jobs run under the supervisor

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, CancelRunningJobYieldsCancelled) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  JobSpec spec = cleanJob("slow", kSeed, 5000);
  spec.gen.numCells = 2000;
  auto id = client.submit(spec);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(client.cancel(*id).ok());
  auto out = client.wait(*id, 120.0);
  ASSERT_TRUE(out.ok()) << out.status().toString();
  EXPECT_EQ(out->status.code(), StatusCode::kCancelled)
      << out->status.toString();

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, CancelQueuedJobNeverRuns) {
  ServeOptions opt = baseOptions();
  opt.workers = 1;
  ServeDaemon daemon(opt);
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  JobSpec blocker = cleanJob("blocker", kSeed, 2000);
  blocker.gen.numCells = 1500;
  auto b = client.submit(blocker);
  ASSERT_TRUE(b.ok());
  auto q = client.submit(cleanJob("queued"));
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(client.cancel(*q).ok());
  auto out = client.wait(*q, 60.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(out->wallSeconds, 0.0);  // never dispatched
  ASSERT_TRUE(client.cancel(*b).ok());
  ASSERT_TRUE(client.wait(*b, 120.0).ok());

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, PoisonedJobFailsAloneNeighborsBitExact) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  // The poisoned job NaNs every gradient evaluation, defeating every
  // supervisor retry — it must end with a typed failure, not hang or crash.
  JobSpec poisoned = cleanJob("poisoned");
  InjectSpec inj;
  inj.site = "nesterov.grad";
  inj.spec.kind = FaultKind::kNaN;
  inj.spec.atTick = 0;
  inj.spec.count = 1000000;
  poisoned.injections.push_back(inj);

  auto a = client.submit(cleanJob("left"));
  auto p = client.submit(poisoned);
  auto b = client.submit(cleanJob("right"));
  ASSERT_TRUE(a.ok() && p.ok() && b.ok());

  auto outP = client.wait(*p, 300.0);
  ASSERT_TRUE(outP.ok());
  EXPECT_FALSE(outP->status.ok());
  EXPECT_NE(outP->status.code(), StatusCode::kInternal)
      << outP->status.toString();

  const std::uint64_t solo = soloBits();
  for (auto id : {*a, *b}) {
    auto out = client.wait(id, 300.0);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->status.ok()) << out->status.toString();
    EXPECT_EQ(out->hpwlBits, solo);
  }

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, FullQueueRejectsTypedWithoutBlocking) {
  ServeOptions opt = baseOptions();
  opt.workers = 1;
  opt.queueCapacity = 1;
  ServeDaemon daemon(opt);
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  JobSpec blocker = cleanJob("blocker", kSeed, 5000);
  blocker.gen.numCells = 2000;
  ASSERT_TRUE(client.submit(blocker).ok());  // running
  // Give the worker a moment to claim the blocker so the next submit is
  // the one queued entry.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(client.submit(cleanJob("queued")).ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto rejected = client.submit(cleanJob("over"));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(took, 2.0);  // admission never blocks
  // The rejected submit left no trace: no journal entry, no result.
  EXPECT_FALSE(fs::exists(root_ + "/jobs/job_3.json"));

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, MalformedLinesGetTypedErrorsDaemonSurvives) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  for (const std::string& bad :
       {std::string("this is not json"), std::string("{\"op\":\"warp\"}"),
        std::string("{\"op\":\"submit\",\"job\":{}}"), std::string("{")}) {
    auto raw = client.callRaw(bad, 30.0);
    ASSERT_TRUE(raw.ok()) << bad;
    auto resp = parseJson(*raw);
    ASSERT_TRUE(resp.ok()) << *raw;
    EXPECT_FALSE(resp->getBool("ok", true)) << *raw;
    EXPECT_EQ(statusFromResponse(*resp).code(), StatusCode::kInvalidInput);
  }
  // Same connection still serves valid requests.
  EXPECT_TRUE(client.ping().ok());

  // An oversized un-newlined line loses framing: the daemon may close the
  // connection after its one typed rejection, but must keep serving new
  // connections.
  ServeClient big;
  ASSERT_TRUE(big.connect(sock_).ok());
  std::string huge(200 * 1024, 'x');
  (void)big.callRaw(huge, 10.0);
  ServeClient fresh;
  ASSERT_TRUE(fresh.connect(sock_).ok());
  EXPECT_TRUE(fresh.ping().ok());

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, ServeFaultSitesDegradeOneRequestOnly) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());

  // serve.request: one raw line is corrupted before parsing -> typed
  // rejection for that request, daemon unharmed.
  FaultSpec corrupt;
  corrupt.kind = FaultKind::kTruncate;
  corrupt.atTick = 0;
  corrupt.count = 1;
  daemon.context().faults().arm("serve.request", corrupt);
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  {
    auto raw = client.callRaw("{\"op\":\"stats\"}", 30.0);
    ASSERT_TRUE(raw.ok());
    auto resp = parseJson(*raw);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp->getBool("ok", true));
  }
  EXPECT_TRUE(client.ping().ok());  // next request is clean

  // serve.accept: one admission is refused kUnavailable; the retry lands.
  FaultSpec refuse;
  refuse.kind = FaultKind::kNaN;
  refuse.atTick = 0;
  refuse.count = 1;
  daemon.context().faults().arm("serve.accept", refuse);
  auto denied = client.submit(cleanJob("denied"));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kUnavailable);
  auto retried = client.submit(cleanJob("retried"));
  ASSERT_TRUE(retried.ok());
  auto out = client.wait(*retried, 300.0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok());
  EXPECT_EQ(out->hpwlBits, soloBits());

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, GracefulShutdownDrainsRunningJobs) {
  ServeOptions opt = baseOptions();
  opt.drainSeconds = 120.0;
  ServeDaemon daemon(opt);
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  auto id = client.submit(cleanJob("drained"));
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  daemon.requestShutdown();
  daemon.wait();

  // The running job finished inside the drain window; its durable result
  // matches the solo run and the stats dump exists.
  JobStore store(root_);
  auto out = store.readResult(*id);
  ASSERT_TRUE(out.ok()) << out.status().toString();
  EXPECT_TRUE(out->status.ok());
  EXPECT_EQ(out->hpwlBits, soloBits());
  EXPECT_TRUE(fs::exists(root_ + "/serve_stats.json"));
  EXPECT_TRUE(store.recoverPending().empty());
}

TEST_F(ServeDaemonTest, DrainDeadlinePreemptsThenRestartResumesBitExact) {
  // Heavy enough that neither job can finish before the shutdown below
  // (sized against the planned-FFT kernels: a 4000-cell supervised flow
  // stays well past the 600 ms preemption point on any machine).
  constexpr std::size_t kBigCells = 4000;
  auto bigJob = [](const char* name) {
    JobSpec spec = cleanJob(name, kSeed, 1500);
    spec.gen.numCells = kBigCells;
    return spec;
  };
  std::uint64_t solo = 0;
  {
    SessionOptions so;
    so.name = "solo";
    so.threads = 1;
    so.logLevel = LogLevel::kOff;
    so.supervised = true;
    so.flow.gp.maxIterations = 1500;
    so.flow.runDetail = false;
    PlacerSession session(so);
    GenSpec gs;
    gs.name = "solo";
    gs.numCells = kBigCells;
    gs.seed = kSeed;
    ASSERT_TRUE(session.adopt(generateCircuit(gs)).ok());
    auto res = session.place();
    ASSERT_TRUE(res.ok());
    solo = std::bit_cast<std::uint64_t>(res->finalHpwl);
  }
  {
    ServeOptions opt = baseOptions();
    opt.workers = 1;
    opt.drainSeconds = 0.0;  // preempt immediately at shutdown
    opt.defaultSaveEvery = 5;
    ServeDaemon daemon(opt);
    ASSERT_TRUE(daemon.start().ok());
    ServeClient client;
    ASSERT_TRUE(client.connect(sock_).ok());
    // One running + one still queued at shutdown; both must survive.
    auto r = client.submit(bigJob("running"));
    auto q = client.submit(bigJob("queued"));
    ASSERT_TRUE(r.ok() && q.ok());
    // Let the running job put real iterations behind a snapshot.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    daemon.requestShutdown();
    daemon.wait();
    JobStore store(root_);
    EXPECT_EQ(store.recoverPending().size(), 2u);
  }
  {
    ServeOptions opt = baseOptions();
    ServeDaemon daemon(opt);
    ASSERT_TRUE(daemon.start().ok());
    EXPECT_EQ(daemon.recoveredJobs(), 2);
    ServeClient client;
    ASSERT_TRUE(client.connect(sock_).ok());
    for (std::uint64_t id : {1ULL, 2ULL}) {
      auto out = client.wait(id, 300.0);
      ASSERT_TRUE(out.ok()) << out.status().toString();
      EXPECT_TRUE(out->status.ok()) << out->status.toString();
      EXPECT_EQ(out->hpwlBits, solo) << "job " << id;
    }
    daemon.requestShutdown();
    daemon.wait();
  }
}

TEST_F(ServeDaemonTest, DeadlineMapsToWallBudget) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  JobSpec spec = cleanJob("deadline", kSeed, 100000);
  spec.gen.numCells = 2000;
  spec.deadlineSeconds = 0.3;
  auto id = client.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto out = client.wait(*id, 120.0);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(out.ok());
  // A 100k-iteration 2000-cell job cannot finish in the budget: the
  // deadline must cut it short with a typed terminal outcome.
  EXPECT_LT(took, 60.0);
  if (!out->status.ok()) {
    EXPECT_EQ(out->status.code(), StatusCode::kTimeout)
        << out->status.toString();
  }
  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(ServeDaemonTest, WatchStreamsProgressEvents) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient submitter;
  ASSERT_TRUE(submitter.connect(sock_).ok());
  auto id = submitter.submit(cleanJob("watched"));
  ASSERT_TRUE(id.ok());

  ServeClient watcher;
  ASSERT_TRUE(watcher.connect(sock_).ok());
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("watch"));
  req.set("id", JsonValue::number(static_cast<double>(*id)));
  auto raw = watcher.callRaw(writeJson(req), 300.0);
  ASSERT_TRUE(raw.ok());
  int events = 0;
  bool sawFinal = false;
  std::string line = *raw;
  for (int i = 0; i < 10000 && !sawFinal; ++i) {
    auto v = parseJson(line);
    ASSERT_TRUE(v.ok()) << line;
    if (v->find("event") != nullptr) {
      ++events;
    } else {
      EXPECT_TRUE(v->getBool("ok", false)) << line;
      EXPECT_NE(v->find("result"), nullptr);
      sawFinal = true;
      break;
    }
    auto next = watcher.readLine(300.0);
    ASSERT_TRUE(next.ok()) << next.status().toString();
    line = *next;
  }
  EXPECT_TRUE(sawFinal);
  EXPECT_GT(events, 0);

  daemon.requestShutdown();
  daemon.wait();
}

// ---------------------------------------------------------------------------
// The headline crash test: SIGKILL the real daemon binary mid-batch.

namespace {

pid_t spawnDaemon(const std::string& sock, const std::string& root) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(EP_SERVE_BIN, "eplace_serve", "--socket", sock.c_str(), "--root",
          root.c_str(), "--workers", "1", "--save-every", "5",
          "--log-level", "off", static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

}  // namespace

TEST_F(ServeDaemonTest, KillNineMidBatchThenRestartFinishesBitExact) {
  const int iters = 600;
  const std::uint64_t solo = soloBits(kSeed, iters);

  const pid_t pid = spawnDaemon(sock_, root_);
  ASSERT_GT(pid, 0);
  {
    ServeClient client;
    ASSERT_TRUE(client.connect(sock_, 15.0).ok());
    // Two jobs: one running, one queued when the axe falls.
    JobSpec spec = cleanJob("victim", kSeed, iters);
    spec.saveEvery = 5;
    ASSERT_TRUE(client.submit(spec).ok());
    ASSERT_TRUE(client.submit(spec).ok());
    // Wait until the running job has at least two COMPLETED snapshots (a
    // lone entry could be the torn .tmp of a write the kill interrupts,
    // which would leave nothing valid to resume from).
    const std::string snapDir = root_ + "/snaps/job_1";
    int completed = 0;
    for (int i = 0; i < 1500 && completed < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      completed = 0;
      if (fs::exists(snapDir)) {
        for (const auto& e : fs::directory_iterator(snapDir)) {
          if (e.path().extension() == ".epsnap") ++completed;
        }
      }
    }
    ASSERT_GE(completed, 2) << "no snapshots appeared before the kill";
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  fs::remove(sock_);  // the killed daemon could not unlink its socket

  // Both journals survived the kill; neither has a result yet.
  {
    JobStore store(root_);
    EXPECT_EQ(store.recoverPending().size(), 2u);
  }

  // Restart in-process on the same root: both jobs must be re-admitted and
  // finish bit-identically to a never-killed run.
  ServeOptions opt = baseOptions();
  ServeDaemon daemon(opt);
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_EQ(daemon.recoveredJobs(), 2);
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  bool anyResumed = false;
  for (std::uint64_t id : {1ULL, 2ULL}) {
    auto out = client.wait(id, 600.0);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_TRUE(out->status.ok()) << out->status.toString();
    EXPECT_EQ(out->hpwlBits, solo) << "job " << id;
    anyResumed = anyResumed || out->resumed;
  }
  // The job that was mid-GP when killed must have resumed from its
  // snapshot rather than recomputed from scratch.
  EXPECT_TRUE(anyResumed);
  daemon.requestShutdown();
  daemon.wait();
}

namespace {

/// Overwrites a file with garbage of the same length (defeats both the
/// snapshot CRC and the journal's JSON parse without changing sizes).
void corruptFile(const fs::path& p) {
  const auto n = static_cast<std::size_t>(fs::file_size(p));
  std::string garbage(n > 0 ? n : 16, '\xa5');
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr) << p;
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
}

}  // namespace

// Worst-case restart: the daemon is SIGKILLed mid-batch and EVERY durable
// artifact it would resume from is then corrupted — all snapshots of the
// running job, plus the queued job's journal entry. The restart must not
// crash-loop: the corrupt journal entry is dropped with a warning (typed
// absence, not a crash), and the job whose snapshots are all invalid is
// re-run from scratch to a bit-exact result.
TEST_F(ServeDaemonTest, CorruptSnapshotsAndJournalAtRestartNeverCrashLoop) {
  const int iters = 600;
  const std::uint64_t solo = soloBits(kSeed, iters);

  const pid_t pid = spawnDaemon(sock_, root_);
  ASSERT_GT(pid, 0);
  {
    ServeClient client;
    ASSERT_TRUE(client.connect(sock_, 15.0).ok());
    JobSpec spec = cleanJob("victim", kSeed, iters);
    spec.saveEvery = 5;
    ASSERT_TRUE(client.submit(spec).ok());
    ASSERT_TRUE(client.submit(spec).ok());
    const std::string snapDir = root_ + "/snaps/job_1";
    int completed = 0;
    for (int i = 0; i < 1500 && completed < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      completed = 0;
      if (fs::exists(snapDir)) {
        for (const auto& e : fs::directory_iterator(snapDir)) {
          if (e.path().extension() == ".epsnap") ++completed;
        }
      }
    }
    ASSERT_GE(completed, 2) << "no snapshots appeared before the kill";
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  fs::remove(sock_);

  // Poison everything the restart would trust.
  int corrupted = 0;
  for (const char* dir : {"/snaps/job_1", "/snaps/job_2"}) {
    if (!fs::exists(root_ + dir)) continue;
    for (const auto& e : fs::directory_iterator(root_ + dir)) {
      if (!e.is_regular_file()) continue;
      corruptFile(e.path());
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0);
  ASSERT_TRUE(fs::exists(root_ + "/jobs/job_2.json"));
  corruptFile(root_ + "/jobs/job_2.json");

  // Restart on the poisoned root. Job 1 (intact journal, corrupt
  // snapshots) is re-admitted and re-run from scratch; job 2 (corrupt
  // journal) is skipped with a warning. Neither crashes the daemon.
  ServeOptions opt = baseOptions();
  ServeDaemon daemon(opt);
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_EQ(daemon.recoveredJobs(), 1);
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());
  EXPECT_TRUE(client.ping().ok());

  auto out = client.wait(1, 600.0);
  ASSERT_TRUE(out.ok()) << out.status().toString();
  EXPECT_TRUE(out->status.ok()) << out->status.toString();
  EXPECT_EQ(out->hpwlBits, solo);
  EXPECT_FALSE(out->resumed) << "no valid snapshot existed to resume from";

  // The dropped job is a typed absence on the wire, not a crash.
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("result"));
  req.set("id", JsonValue::number(2.0));
  auto resp = client.call(req, 30.0);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->getBool("ok", true));
  EXPECT_EQ(statusFromResponse(*resp).code(), StatusCode::kInvalidInput);

  daemon.requestShutdown();
  daemon.wait();
}
