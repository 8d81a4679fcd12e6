// Resource-governance suite (ctest -L governance): per-context memory
// budgets and storage-fault containment, end to end.
//
// What is proven here:
//   * MemoryBudget semantics — charge-before-allocate, rejection leaves the
//     accounting untouched, peak tracking, clamped release.
//   * ep::io durable-write semantics — a one-shot injected fault is
//     absorbed by the retry policy; a persistent fault exhausts it into a
//     typed kIo; ENOSPC is recognized and never retried.
//   * Steady-state kernels never touch the budget: arena borrows that do
//     not grow charge nothing, so budgets cannot perturb results.
//   * Arenas return what they charged when destroyed or assigned over, so
//     a session that places twice holds the same charge after each.
//   * A session whose budget cannot hold the placement view fails with
//     kResourceExhausted before placing anything; a generously budgeted
//     session is bit-identical to an unbudgeted one and reports peak bytes.
//   * The multilevel V-cycle's ladder is charged while it lives: a budget
//     that holds flat mGP but not the ladder abandons coarse levels.
//   * The supervised flow survives persistent snapshot-write faults by
//     degrading to snapshot-less mode and still finishing.
//   * Daemon governance — an impossible mem_budget_mb is rejected typed at
//     admission for gen jobs AND aux jobs (the Bookshelf counting pass +
//     capacity plan price the instance at submit; no journal entry, worker
//     slots untouched); a mid-run breach from costs the admission estimate
//     cannot see (fillers over whitespace) fails that job alone while
//     neighbors stay bit-identical to solo runs; a journal-write fault
//     rejects the one submit with kUnavailable while the daemon stays
//     healthy.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include "bookshelf/bookshelf.h"
#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "util/io.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace fs = std::filesystem;
using namespace ep;
using namespace ep::serve;

namespace {

FaultSpec persistentError() {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.atTick = 0;
  spec.count = -1;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryBudget unit semantics.

TEST(MemoryBudget, ChargeReleasePeakAndRejection) {
  MemoryBudget mb;
  EXPECT_FALSE(mb.limited());
  EXPECT_TRUE(mb.tryCharge(1000));  // unlimited: always accepted, accounted
  EXPECT_EQ(mb.usedBytes(), 1000u);
  EXPECT_EQ(mb.peakBytes(), 1000u);

  mb.reset();
  mb.setLimit(4096);
  EXPECT_TRUE(mb.limited());
  EXPECT_TRUE(mb.tryCharge(4000));
  // Rejection leaves the accounting exactly where it was.
  EXPECT_FALSE(mb.tryCharge(200));
  EXPECT_EQ(mb.usedBytes(), 4000u);
  EXPECT_EQ(mb.peakBytes(), 4000u);
  // Headroom freed by a release is immediately usable again.
  mb.release(2000);
  EXPECT_TRUE(mb.tryCharge(2096));
  EXPECT_EQ(mb.usedBytes(), 4096u);
  EXPECT_EQ(mb.peakBytes(), 4096u);
  // Over-release clamps at zero instead of wrapping.
  mb.release(1u << 30);
  EXPECT_EQ(mb.usedBytes(), 0u);
  EXPECT_EQ(mb.peakBytes(), 4096u);  // peak is a high-water mark
}

TEST(MemoryBudget, ChargeOrThrowCarriesSizes) {
  MemoryBudget mb;
  mb.setLimit(100);
  EXPECT_NO_THROW(mb.chargeOrThrow(60));
  try {
    mb.chargeOrThrow(50);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.requestedBytes, 50u);
    EXPECT_EQ(e.usedBytes, 60u);
    EXPECT_EQ(e.limitBytes, 100u);
  }
  EXPECT_EQ(mb.usedBytes(), 60u);  // failed charge left no residue
}

TEST(MemoryBudget, ScopedChargeReleasesOnlyWhatItHolds) {
  MemoryBudget mb;
  mb.setLimit(1000);
  {
    ScopedCharge ok(mb, 600);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(mb.usedBytes(), 600u);
    ScopedCharge rejected(mb, 600);
    EXPECT_FALSE(rejected.ok());
    EXPECT_EQ(mb.usedBytes(), 600u);  // rejected scope holds nothing
  }
  EXPECT_EQ(mb.usedBytes(), 0u);  // only the accepted scope released
}

// ---------------------------------------------------------------------------
// Arena: growth charges the budget; steady state never touches it.

TEST(MemoryBudget, ArenaChargesGrowthOnlyNeverSteadyState) {
  GenSpec gs;
  gs.name = "arena";
  gs.numCells = 50;
  gs.seed = 3;
  PlacementDB db = generateCircuit(gs);
  db.finalize();
  ScratchArena& arena = db.view().arena();

  MemoryBudget mb;
  arena.setBudget(&mb);
  (void)arena.doubles("t.buf", 1000);
  const std::size_t afterGrowth = mb.usedBytes();
  EXPECT_GE(afterGrowth, 1000u * sizeof(double));
  const long growths = arena.growthEvents();

  // The steady-state pattern kernels use after warm-up: same key, same (or
  // smaller) size. Zero growth, zero charges — budgets cannot perturb the
  // hot loop.
  for (int i = 0; i < 100; ++i) {
    (void)arena.doubles("t.buf", 1000);
    (void)arena.doubles("t.buf", 500);
  }
  EXPECT_EQ(arena.growthEvents(), growths);
  EXPECT_EQ(mb.usedBytes(), afterGrowth);

  // Growth past capacity charges exactly the new bytes.
  (void)arena.doubles("t.buf", 2000);
  EXPECT_EQ(mb.usedBytes(), afterGrowth + 1000u * sizeof(double));
  arena.setBudget(nullptr);
}

TEST(MemoryBudget, ArenaGrowthBreachThrowsAndAllocatesNothing) {
  GenSpec gs;
  gs.name = "arena2";
  gs.numCells = 50;
  gs.seed = 3;
  PlacementDB db = generateCircuit(gs);
  db.finalize();
  ScratchArena& arena = db.view().arena();

  MemoryBudget mb;
  mb.setLimit(1024);
  arena.setBudget(&mb);
  const std::size_t capBefore = arena.capacityBytes();
  EXPECT_THROW((void)arena.doubles("t.big", 1u << 20), MemoryBudgetExceeded);
  EXPECT_EQ(arena.capacityBytes(), capBefore);  // charge-before-allocate
  EXPECT_EQ(mb.usedBytes(), 0u);
  arena.setBudget(nullptr);
}

TEST(MemoryBudget, ArenaReturnsItsChargeWhenDestroyedOrAssignedOver) {
  MemoryBudget mb;
  const std::size_t charged =
      1000u * sizeof(double) + 500u * sizeof(std::int32_t);
  {
    ScratchArena arena;
    arena.setBudget(&mb);
    (void)arena.doubles("t.buf", 1000);
    (void)arena.ints("t.idx", 500);
    EXPECT_EQ(mb.usedBytes(), charged);

    // A move hands the charge over; assigning over an arena returns the
    // charge it held.
    ScratchArena moved(std::move(arena));
    EXPECT_EQ(mb.usedBytes(), charged);
    ScratchArena other;
    other.setBudget(&mb);
    (void)other.doubles("t.other", 100);
    EXPECT_EQ(mb.usedBytes(), charged + 100u * sizeof(double));
    other = std::move(moved);
    EXPECT_EQ(mb.usedBytes(), charged);

    // A copy holds no budget and no charge: destroying it returns nothing.
    {
      ScratchArena copy(other);
      EXPECT_EQ(copy.budget(), nullptr);
    }
    EXPECT_EQ(mb.usedBytes(), charged);

    // Detaching returns the charge; growth after re-attaching is charged.
    other.setBudget(nullptr);
    EXPECT_EQ(mb.usedBytes(), 0u);
    other.setBudget(&mb);
    (void)other.doubles("t.grown", 10);
    EXPECT_EQ(mb.usedBytes(), 10u * sizeof(double));
  }
  EXPECT_EQ(mb.usedBytes(), 0u);  // destruction returned the rest
  EXPECT_EQ(mb.peakBytes(), charged + 100u * sizeof(double));
}

// ---------------------------------------------------------------------------
// ep::io durable-write semantics under injected storage faults.

class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each case in its own process, so
    // a shared directory would be removed under a concurrent test.
    dir_ = fs::path(::testing::TempDir()) /
           ("ep_io_fault_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(IoFaultTest, OneShotFaultAbsorbedByRetry) {
  for (const char* site : {"io.write", "io.fsync", "io.rename"}) {
    FaultInjector faults;
    FaultSpec spec = persistentError();
    spec.count = 1;  // fail exactly one attempt
    faults.arm(site, spec);
    const std::string path = (dir_ / (std::string(site) + ".txt")).string();
    const Status s = io::writeFileDurably(path, "payload", &faults);
    EXPECT_TRUE(s.ok()) << site << ": " << s.toString();
    EXPECT_TRUE(fs::exists(path)) << site;
    EXPECT_EQ(faults.fireCount(site), 1) << site;
  }
}

TEST_F(IoFaultTest, PersistentFaultExhaustsRetriesIntoTypedIo) {
  for (const char* site : {"io.write", "io.fsync", "io.rename"}) {
    FaultInjector faults;
    faults.arm(site, persistentError());
    const std::string path = (dir_ / (std::string(site) + ".txt")).string();
    const Status s = io::writeFileDurably(path, "payload", &faults);
    EXPECT_EQ(s.code(), StatusCode::kIo) << site;
    EXPECT_FALSE(io::isNoSpace(s)) << site;
    EXPECT_FALSE(fs::exists(path)) << site;  // no partial file landed
    EXPECT_FALSE(fs::exists(path + ".tmp")) << site;  // tmp cleaned up
    EXPECT_EQ(faults.fireCount(site), 3) << site;  // default retry policy
  }
}

TEST_F(IoFaultTest, EnospcIsRecognizedAndNeverRetried) {
  FaultInjector faults;
  faults.arm("io.enospc", persistentError());
  const std::string path = (dir_ / "full.txt").string();
  const Status s = io::writeFileDurably(path, "payload", &faults);
  EXPECT_EQ(s.code(), StatusCode::kIo);
  EXPECT_TRUE(io::isNoSpace(s)) << s.toString();
  // A full disk will not empty itself inside the backoff window: exactly
  // one attempt, no retries.
  EXPECT_EQ(faults.fireCount("io.enospc"), 1);
}

// ---------------------------------------------------------------------------
// Session-level governance.

namespace {

constexpr int kCells = 220;
constexpr int kIters = 40;
constexpr std::uint64_t kSeed = 11;

SessionOptions soloOptions(std::size_t memBudgetMb = 0) {
  SessionOptions so;
  so.name = "gov";
  so.threads = 1;
  so.logLevel = LogLevel::kOff;
  so.supervised = true;
  so.flow.gp.maxIterations = kIters;
  so.flow.runDetail = false;
  so.memBudgetMb = memBudgetMb;
  return so;
}

PlacementDB genDb(std::size_t cells, std::uint64_t seed = kSeed) {
  GenSpec gs;
  gs.name = "gov";
  gs.numCells = cells;
  gs.seed = seed;
  return generateCircuit(gs);
}

}  // namespace

TEST(Governance, UndersizedSessionBudgetFailsTypedBeforePlacing) {
  PlacerSession session(soloOptions(/*memBudgetMb=*/1));
  ASSERT_TRUE(session.adopt(genDb(20000)).ok());
  const auto res = session.place();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().toString();
}

TEST(Governance, BudgetedRunBitIdenticalToUnbudgetedAndReportsPeak) {
  std::uint64_t unbudgeted = 0;
  {
    PlacerSession session(soloOptions());
    ASSERT_TRUE(session.adopt(genDb(kCells)).ok());
    const auto res = session.place();
    ASSERT_TRUE(res.ok()) << res.status().toString();
    unbudgeted = std::bit_cast<std::uint64_t>(res->finalHpwl);
    // Accounting runs even without a cap, so peak-bytes reporting works
    // for unbudgeted jobs too.
    EXPECT_GT(session.context().memory().peakBytes(), 0u);
  }
  PlacerSession session(soloOptions(/*memBudgetMb=*/512));
  ASSERT_TRUE(session.adopt(genDb(kCells)).ok());
  const auto res = session.place();
  ASSERT_TRUE(res.ok()) << res.status().toString();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res->finalHpwl), unbudgeted)
      << "budget accounting perturbed the placement";
  EXPECT_GT(session.context().memory().peakBytes(), 0u);
  EXPECT_LE(session.context().memory().peakBytes(), 512u << 20);
}

// A session that places twice holds the same charge after each: the
// arena of the instance it adopted over is returned to the budget, so a
// budget that fits one placement fits every later one of the same size.
TEST(Governance, RepeatedPlacementsInOneSessionHoldTheSameCharge) {
  PlacerSession session(soloOptions(/*memBudgetMb=*/10));
  const MemoryBudget& mb = session.context().memory();
  std::size_t used[2] = {0, 0};
  for (std::size_t& u : used) {
    ASSERT_TRUE(session.adopt(generateCircuit(suiteSpec("scale_10k"))).ok());
    const auto res = session.place();
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_TRUE(res->status.ok()) << res->status.toString();
    u = mb.usedBytes();
  }
  EXPECT_GT(used[0], 0u);
  EXPECT_EQ(used[1], used[0]);
}

namespace {

/// A supervised multilevel session on scale_10k (3-level ladder), with the
/// coarse levels and flat mGP capped to keep the test short.
SessionOptions multilevelOptions(std::size_t memBudgetMb) {
  SessionOptions so = soloOptions(memBudgetMb);
  so.threads = 2;
  so.sup.multilevel.enabled = true;
  so.sup.multilevel.levelMaxIterations = kIters;
  return so;
}

struct LadderRun {
  StatusOr<FlowResult> res = Status::internal("not run");
  std::size_t accountedPeak = 0;
  double memBreaches = 0.0;
  int flatMgpAttempts = 0;
};

LadderRun placeMultilevel(std::size_t memBudgetMb) {
  PlacerSession session(multilevelOptions(memBudgetMb));
  EXPECT_TRUE(session.adopt(generateCircuit(suiteSpec("scale_10k"))).ok());
  LadderRun run;
  run.res = session.place();
  run.accountedPeak = session.context().memory().peakBytes();
  run.memBreaches = session.context().stats().value("supervisor.memBreaches");
  for (const StageReport& r : session.report().stages) {
    if (r.stage == FlowStage::kMgp && r.level < 0) {
      run.flatMgpAttempts = r.attempts;
    }
  }
  return run;
}

}  // namespace

// The budget sees the V-cycle's ladder: every level's view and arena is
// charged while the level lives. Flat mGP on this design accounts about
// 7.2 MiB and the V-cycle about 8.2 MiB. An 8 MiB budget holds flat mGP
// but not the ladder on top of it, so a coarse level breaches, the ladder
// is abandoned and flat mGP finishes on its first attempt. A 7 MiB budget
// holds neither: the coarsest level breaches and flat mGP takes its
// memory retry on a coarser bin grid.
TEST(Governance, BudgetSeesTheMultilevelLadder) {
  const LadderRun full = placeMultilevel(0);
  ASSERT_TRUE(full.res.ok()) << full.res.status().toString();
  EXPECT_TRUE(full.res->status.ok()) << full.res->status.toString();
  EXPECT_GT(full.accountedPeak, std::size_t{8} << 20);
  EXPECT_EQ(full.memBreaches, 0.0);

  const LadderRun fits = placeMultilevel(8);
  ASSERT_TRUE(fits.res.ok()) << fits.res.status().toString();
  EXPECT_TRUE(fits.res->status.ok()) << fits.res->status.toString();
  EXPECT_LT(fits.res->mgpLevels.size(), full.res->mgpLevels.size());
  EXPECT_GE(fits.memBreaches, 1.0);
  EXPECT_EQ(fits.flatMgpAttempts, 1);
  EXPECT_LE(fits.accountedPeak, std::size_t{8} << 20);

  const LadderRun tight = placeMultilevel(7);
  ASSERT_TRUE(tight.res.ok()) << tight.res.status().toString();
  EXPECT_TRUE(tight.res->status.ok()) << tight.res->status.toString();
  ASSERT_EQ(tight.res->mgpLevels.size(), 1u);
  EXPECT_EQ(tight.res->mgpLevels[0].metrics.iterations, 0);
  EXPECT_EQ(tight.flatMgpAttempts, 2);  // the coarser-grid memory retry
  EXPECT_GE(tight.memBreaches, 2.0);
  EXPECT_LE(tight.accountedPeak, std::size_t{7} << 20);
}

TEST(Governance, SupervisedFlowDegradesToSnapshotlessUnderPersistentEnospc) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gov_enospc";
  fs::remove_all(dir);
  fs::create_directories(dir);

  RuntimeContext ctx;
  ctx.faults().arm("io.enospc", persistentError());

  PlacementDB db = genDb(kCells);
  FlowConfig cfg;
  cfg.gp.maxIterations = kIters;
  cfg.runDetail = false;
  SupervisorConfig sup;
  sup.snapshotDir = (dir / "snaps").string();
  sup.saveEvery = 5;
  SupervisorReport report;
  const auto run = runSupervisedFlow(db, cfg, ctx, sup, &report);
  // Snapshots are a durability feature, not a correctness one: the run
  // must finish without them.
  ASSERT_TRUE(run.ok()) << run.status().toString();
  EXPECT_TRUE(run->status.ok()) << run->status.toString();
  EXPECT_GE(ctx.stats().value("supervisor.snapshotFailures"), 1.0);
  EXPECT_GE(ctx.stats().value("supervisor.snapshotsDisabled"), 1.0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Daemon-level governance over a real socket.

class GovernanceDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    root_ = "/tmp/ep_gov_" + name;
    sock_ = "/tmp/ep_gov_" + name + ".sock";
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

  static JobSpec cleanJob(const std::string& name) {
    JobSpec spec;
    spec.name = name;
    spec.hasGen = true;
    spec.gen.numCells = kCells;
    spec.gen.seed = kSeed;
    spec.gpMaxIterations = kIters;
    spec.runDetail = false;
    return spec;
  }

  static std::uint64_t soloBits() {
    PlacerSession session(soloOptions());
    EXPECT_TRUE(session.adopt(genDb(kCells)).ok());
    const auto res = session.place();
    EXPECT_TRUE(res.ok());
    return std::bit_cast<std::uint64_t>(res->finalHpwl);
  }

  std::string root_;
  std::string sock_;
};

TEST_F(GovernanceDaemonTest, ImpossibleBudgetRejectedTypedAtAdmission) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  // 50k cells cannot fit in 1 MiB: the capacity estimate rejects this at
  // submit — typed, instant, no worker slot burned, no journal entry.
  JobSpec doomed = cleanJob("doomed");
  doomed.gen.numCells = 50000;
  doomed.memBudgetMb = 1;
  const auto rejected = client.submit(doomed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().toString();
  EXPECT_FALSE(fs::exists(root_ + "/jobs/job_1.json"));

  // Aux jobs are priced the same way at submit: the Bookshelf counting
  // pass + capacity plan see the 20k cells, so the undersized budget is
  // rejected before a worker slot or journal entry is burned.
  const std::string auxDir = root_ + "_aux";
  fs::remove_all(auxDir);
  fs::create_directories(auxDir);
  ASSERT_TRUE(writeBookshelf(auxDir, "doomed", genDb(20000)).ok());
  JobSpec auxDoomed;
  auxDoomed.name = "aux_doomed";
  auxDoomed.auxPath = auxDir + "/doomed.aux";
  auxDoomed.memBudgetMb = 1;
  const auto auxRejected = client.submit(auxDoomed);
  ASSERT_FALSE(auxRejected.ok());
  EXPECT_EQ(auxRejected.status().code(), StatusCode::kResourceExhausted)
      << auxRejected.status().toString();
  EXPECT_FALSE(fs::exists(root_ + "/jobs/job_1.json"));
  fs::remove_all(auxDir);

  // The same job with a workable budget is admitted and finishes.
  JobSpec fine = cleanJob("fine");
  fine.memBudgetMb = 512;
  const auto id = client.submit(fine);
  ASSERT_TRUE(id.ok()) << id.status().toString();
  const auto out = client.wait(*id, 300.0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok()) << out->status.toString();
  EXPECT_GT(out->peakBytes, 0u);

  daemon.requestShutdown();
  daemon.wait();
}

TEST_F(GovernanceDaemonTest, MidRunBreachFailsAloneNeighborsBitExact) {
  // The admission estimate prices what the counting pass can see: object /
  // net / pin counts. Filler cells are created at run time from whitespace,
  // so a sparse design (utilization 5% -> ~19 fillers per cell) carries GP
  // state the estimate cannot anticipate: the job is admitted, then the
  // arena/bin-grid charges breach the budget mid-run. That breach must fail
  // this job alone, typed, with neighbors bit-identical to solo runs.
  GenSpec sparse;
  sparse.name = "mem";
  sparse.numCells = 2000;
  sparse.utilization = 0.05;
  sparse.seed = kSeed;
  const std::string auxDir = root_ + "_aux";
  fs::remove_all(auxDir);
  fs::create_directories(auxDir);
  ASSERT_TRUE(writeBookshelf(auxDir, "mem", generateCircuit(sparse)).ok());

  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  JobSpec breacher;
  breacher.name = "breacher";
  breacher.auxPath = auxDir + "/mem.aux";
  breacher.memBudgetMb = 4;
  breacher.gpMaxIterations = kIters;
  breacher.runDetail = false;

  const auto left = client.submit(cleanJob("left"));
  const auto mid = client.submit(breacher);
  const auto right = client.submit(cleanJob("right"));
  ASSERT_TRUE(left.ok() && mid.ok() && right.ok());

  const auto outMid = client.wait(*mid, 300.0);
  ASSERT_TRUE(outMid.ok());
  EXPECT_EQ(outMid->status.code(), StatusCode::kResourceExhausted)
      << outMid->status.toString();

  const std::uint64_t solo = soloBits();
  for (const std::uint64_t id : {*left, *right}) {
    const auto out = client.wait(id, 300.0);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->status.ok()) << out->status.toString();
    EXPECT_EQ(out->hpwlBits, solo) << "breach leaked into job " << id;
  }
  EXPECT_TRUE(client.ping().ok());  // daemon healthy throughout

  daemon.requestShutdown();
  daemon.wait();
  fs::remove_all(auxDir);
}

TEST_F(GovernanceDaemonTest, JournalWriteFaultRejectsSubmitDaemonHealthy) {
  ServeDaemon daemon(baseOptions());
  ASSERT_TRUE(daemon.start().ok());
  ServeClient client;
  ASSERT_TRUE(client.connect(sock_).ok());

  // Persistent storage fault on the journal path: the durability invariant
  // ("acked => journaled") must hold by rejecting the submit, and the
  // daemon must stay healthy for retries.
  daemon.context().faults().arm("io.write", persistentError());
  const auto denied = client.submit(cleanJob("denied"));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kUnavailable)
      << denied.status().toString();
  EXPECT_TRUE(client.ping().ok());
  EXPECT_TRUE(fs::is_empty(root_ + "/jobs"));

  // Storage healed: the retry is admitted and finishes bit-exactly.
  daemon.context().faults().disarm("io.write");
  const auto id = client.submit(cleanJob("retried"));
  ASSERT_TRUE(id.ok()) << id.status().toString();
  const auto out = client.wait(*id, 300.0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok()) << out->status.toString();
  EXPECT_EQ(out->hpwlBits, soloBits());

  daemon.requestShutdown();
  daemon.wait();
}
