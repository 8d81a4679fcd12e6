// FlowSupervisor: default == plain policy bit-exactness, crash-safe
// checkpoint/resume (a killed run continues the exact iteration
// trajectory), corrupt-snapshot fallback, the per-stage retry / fallback
// paths under injected legalization and detail-placement faults,
// leftover mLG macro overlap reported on the stage, not the run, an expired
// context deadline stopping every GP stage, the first failing stage winning
// the run's status, and a foreign snapshot file whose number overflows
// staying out of the ring.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

namespace fs = std::filesystem;

/// Thrown from the per-iteration trace hook to emulate a SIGKILL mid-stage:
/// the flow dies at an arbitrary iteration, leaving only what the durable
/// snapshots already captured.
struct KillSignal {};

PlacementDB stdInstance() {
  GenSpec spec;
  spec.name = "sup_std";
  spec.numCells = 300;
  spec.seed = 11;
  return generateCircuit(spec);
}

PlacementDB mixedInstance() {
  GenSpec spec;
  spec.name = "sup_mms";
  spec.numCells = 220;
  spec.numMovableMacros = 2;
  spec.seed = 7;
  return generateCircuit(spec);
}

struct TraceRec {
  std::string stage;
  int iter = 0;
  double hpwl = 0.0;
};

/// Flow config with a per-iteration trace sink and an optional emulated
/// kill point (stage + iteration).
FlowConfig traceConfig(std::vector<TraceRec>* out,
                       std::string killStage = "", int killIter = -1) {
  FlowConfig cfg;
  cfg.gp.maxIterations = 400;
  cfg.gpTrace = [out, killStage = std::move(killStage), killIter](
                    const std::string& stage, const GpIterTrace& it) {
    if (out != nullptr) out->push_back({stage, it.iter, it.hpwl});
    if (it.iter == killIter && stage == killStage) throw KillSignal{};
  };
  return cfg;
}

const StageReport* findStage(const SupervisorReport& rep, FlowStage s) {
  const StageReport* found = nullptr;
  for (const auto& r : rep.stages) {
    if (r.stage == s) found = &r;  // last row for the stage wins
  }
  return found;
}

void expectSamePositions(const PlacementDB& a, const PlacementDB& b) {
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].lx, b.objects[i].lx) << a.objects[i].name;
    EXPECT_EQ(a.objects[i].ly, b.objects[i].ly) << a.objects[i].name;
  }
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("supervisor_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string snapDir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(SupervisorTest, SupervisedMatchesPlainFlowBitExact) {
  RuntimeContext ctx;
  const FlowConfig cfg = traceConfig(nullptr);
  PlacementDB plain = stdInstance();
  const auto refRun = runSupervisedFlow(plain, cfg, ctx, plainPolicy());
  ASSERT_TRUE(refRun.ok());

  PlacementDB sup = stdInstance();
  SupervisorReport report;
  const auto supRun = runSupervisedFlow(sup, cfg, ctx, {}, &report);
  ASSERT_TRUE(supRun.ok());

  // With no faults no retry fires, so the default policy must match the
  // plain one down to the last bit.
  EXPECT_EQ(refRun->finalHpwl, supRun->finalHpwl);
  EXPECT_EQ(refRun->legality.legal, supRun->legality.legal);
  expectSamePositions(plain, sup);
  EXPECT_FALSE(report.resumed);
  ASSERT_EQ(report.stages.size(), 3u);  // mIP, mGP, cDP
  for (const auto& r : report.stages) {
    EXPECT_EQ(r.attempts, 1);
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.fellBack);
  }
  EXPECT_NE(report.summary().find("mGP"), std::string::npos);
}

TEST_F(SupervisorTest, KilledRunResumesBitExactMidMgp) {
  // Reference: uninterrupted supervised run, trajectory recorded.
  RuntimeContext ctx;
  std::vector<TraceRec> refTrace;
  PlacementDB ref = stdInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), ctx);
  ASSERT_TRUE(refRun.ok());

  // "Killed" run: snapshots every 7 iterations, process dies at mGP #23.
  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 7;
  {
    PlacementDB killed = stdInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(
              killed, traceConfig(nullptr, "mGP", 23), ctx, supCfg);
          (void)r;
        },
        KillSignal);
  }
  ASSERT_FALSE(fs::is_empty(dir_));

  // Resume in a fresh process image (fresh DB from the same input).
  std::vector<TraceRec> resTrace;
  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = stdInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(
          resumed, traceConfig(&resTrace), ctx, resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kMgp);
  EXPECT_EQ(report.snapshotsRejected, 0);

  // The resumed run restarts at an iteration-aligned snapshot strictly
  // before the kill point and replays the exact trajectory from there.
  ASSERT_FALSE(resTrace.empty());
  EXPECT_GT(resTrace.front().iter, 0);
  EXPECT_LE(resTrace.front().iter, 23);
  std::map<std::pair<std::string, int>, double> refByIter;
  for (const auto& t : refTrace) refByIter[{t.stage, t.iter}] = t.hpwl;
  for (const auto& t : resTrace) {
    const auto it = refByIter.find({t.stage, t.iter});
    ASSERT_NE(it, refByIter.end()) << t.stage << " #" << t.iter;
    EXPECT_EQ(it->second, t.hpwl) << t.stage << " #" << t.iter;
  }
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, KilledRunResumesBitExactMidCgp) {
  RuntimeContext ctx;
  std::vector<TraceRec> refTrace;
  PlacementDB ref = mixedInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), ctx);
  ASSERT_TRUE(refRun.ok());

  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 6;
  {
    PlacementDB killed = mixedInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(
              killed, traceConfig(nullptr, "cGP", 15), ctx, supCfg);
          (void)r;
        },
        KillSignal);
  }

  std::vector<TraceRec> resTrace;
  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = mixedInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(
          resumed, traceConfig(&resTrace), ctx, resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kCgp);

  // Only cGP re-runs; mIP/mGP/mLG come from the snapshot.
  for (const auto& t : resTrace) EXPECT_EQ(t.stage, "cGP");
  std::map<int, double> refCgp;
  for (const auto& t : refTrace) {
    if (t.stage == "cGP") refCgp[t.iter] = t.hpwl;
  }
  for (const auto& t : resTrace) {
    const auto it = refCgp.find(t.iter);
    ASSERT_NE(it, refCgp.end()) << "cGP #" << t.iter;
    EXPECT_EQ(it->second, t.hpwl) << "cGP #" << t.iter;
  }
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  // Acceptance bound from the issue: within 0.1% (bit-exact in practice).
  EXPECT_NEAR(resRun->finalHpwl, refRun->finalHpwl,
              1e-3 * refRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, CorruptSnapshotsFallBackToPreviousGoodOne) {
  RuntimeContext ctx;
  std::vector<TraceRec> refTrace;
  PlacementDB ref = stdInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), ctx);
  ASSERT_TRUE(refRun.ok());

  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 7;
  supCfg.keepSnapshots = 8;
  {
    PlacementDB killed = stdInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(
              killed, traceConfig(nullptr, "mGP", 23), ctx, supCfg);
          (void)r;
        },
        KillSignal);
  }

  // Corrupt the two newest snapshots: bit-flip one, truncate the other.
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir_)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);
  {
    const auto mid = static_cast<std::streamoff>(fs::file_size(files.back()) / 2);
    std::fstream f(files.back(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(mid);
    char byte = 0;
    f.get(byte);
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  fs::resize_file(files[files.size() - 2],
                  fs::file_size(files[files.size() - 2]) / 3);

  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = stdInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(resumed, traceConfig(nullptr), ctx, resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_GE(report.snapshotsRejected, 2);
  // The older good snapshot is iteration-aligned too, so the trajectory —
  // and therefore the final result — is still bit-exact.
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, LegalizeFaultRetriesThenFallsBackToGreedy) {
  // Corrupt every Abacus legalization pass: the supervisor must retry,
  // then fall back to the greedy (Tetris-only) legalizer and still deliver
  // a legal placement with an OK typed status.
  RuntimeContext ctx;
  ctx.faults().arm(
      "legalize.displace",
      {FaultKind::kSpike, /*atTick=*/0, /*count=*/-1, /*magnitude=*/1e9});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), ctx, {}, &report);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok()) << run->status.toString();
  EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;

  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(cdp, nullptr);
  EXPECT_TRUE(cdp->fellBack);
  EXPECT_GE(cdp->attempts, 3);  // two corrupted Abacus tries + greedy
  EXPECT_NE(cdp->note.find("greedy"), std::string::npos) << cdp->note;
}

TEST_F(SupervisorTest, DetailFaultRollsBackToLegalizedPlacement) {
  RuntimeContext ctx;
  ctx.faults().arm("detail.swap",
                   {FaultKind::kNaN, /*atTick=*/0, /*count=*/-1});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), ctx, {}, &report);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok()) << run->status.toString();
  EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;

  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(cdp, nullptr);
  EXPECT_TRUE(cdp->fellBack);
  EXPECT_NE(cdp->note.find("detail"), std::string::npos) << cdp->note;
  // The deliverable is exactly the post-legalization placement.
  EXPECT_EQ(run->finalHpwl, run->legalizeResult.hpwlAfter);
  EXPECT_TRUE(std::isfinite(hpwl(db)));
}

TEST_F(SupervisorTest, MacroOverlapAfterMlgIsAStageNoteNotARunFailure) {
  // 80 macros at rho_t 0.9: mLG leaves some macro overlap, and cGP + cDP
  // still place the cells legally around the frozen macros.
  RuntimeContext ctx;
  for (const bool plain : {true, false}) {
    SCOPED_TRACE(plain ? "plain policy" : "default policy");
    PlacementDB db = generateCircuit(suiteSpec("mms_newblue2s"));
    SupervisorReport report;
    const auto run = runSupervisedFlow(
        db, {}, ctx, plain ? plainPolicy() : SupervisorConfig{}, &report);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    EXPECT_TRUE(run->status.ok()) << run->status.toString();
    EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;

    const StageReport* mlg = findStage(report, FlowStage::kMlg);
    ASSERT_NE(mlg, nullptr);
    if (plain) {
      EXPECT_EQ(mlg->attempts, 1);
      EXPECT_EQ(mlg->status.code(), StatusCode::kNumericalDivergence);
      EXPECT_NE(mlg->note.find("macro overlap remains"), std::string::npos)
          << mlg->note;
    }
  }
}

TEST_F(SupervisorTest, ExpiredDeadlineStopsEveryGpStageAndStillLegalizes) {
  // The context deadline is the run's only wall-clock limit. Once it has
  // passed, each GP stage stops before its first iteration and starts no
  // retry, and cDP still legalizes whatever mIP and mLG left.
  std::vector<double> finalHpwl;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    RuntimeOptions opt;
    opt.threads = threads;
    opt.wallBudgetSeconds = 1e-9;
    RuntimeContext ctx(opt);
    while (!ctx.deadlineExceeded()) {
    }
    PlacementDB db = mixedInstance();
    SupervisorReport report;
    const auto run = runSupervisedFlow(db, {}, ctx, {}, &report);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    EXPECT_EQ(run->status.code(), StatusCode::kTimeout)
        << run->status.toString();
    for (const FlowStage s : {FlowStage::kMgp, FlowStage::kCgp}) {
      const StageReport* gp = findStage(report, s);
      ASSERT_NE(gp, nullptr) << flowStageName(s);
      EXPECT_EQ(gp->attempts, 1) << flowStageName(s);
      EXPECT_EQ(gp->status.code(), StatusCode::kTimeout) << flowStageName(s);
    }
    EXPECT_EQ(run->mgpResult.iterations, 0);
    EXPECT_EQ(run->cgpResult.iterations, 0);
    const StageReport* cdp = findStage(report, FlowStage::kCdp);
    ASSERT_NE(cdp, nullptr);
    EXPECT_GE(cdp->attempts, 1);
    EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;
    finalHpwl.push_back(run->finalHpwl);
  }
  ASSERT_EQ(finalHpwl.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(finalHpwl[0]),
            std::bit_cast<std::uint64_t>(finalHpwl[1]));
}

TEST_F(SupervisorTest, DegradedMgpThenFailingCdpReportsMgpStatus) {
  // The first failing stage wins the run's status. An expired deadline
  // stops mGP, which is accepted degraded with kTimeout; every legalization
  // pass is then corrupted, so cDP fails too. The run reports mGP's
  // status, not cDP's.
  RuntimeOptions opt;
  opt.wallBudgetSeconds = 1e-9;
  RuntimeContext ctx(opt);
  while (!ctx.deadlineExceeded()) {
  }
  ctx.faults().arm(
      "legalize.displace",
      {FaultKind::kSpike, /*atTick=*/0, /*count=*/-1, /*magnitude=*/1e9});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run = runSupervisedFlow(db, {}, ctx, plainPolicy(), &report);
  ASSERT_TRUE(run.ok()) << run.status().toString();
  const StageReport* mgp = findStage(report, FlowStage::kMgp);
  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(mgp, nullptr);
  ASSERT_NE(cdp, nullptr);
  EXPECT_EQ(mgp->status.code(), StatusCode::kTimeout) << mgp->status.toString();
  EXPECT_EQ(cdp->status.code(), StatusCode::kNumericalDivergence)
      << cdp->status.toString();
  EXPECT_EQ(run->status.code(), StatusCode::kTimeout)
      << run->status.toString();
}

TEST_F(SupervisorTest, OverflowingSnapshotNameIsNotPartOfTheRing) {
  // Not written by any run: its number does not fit the sequence type.
  // Read with wrap-around it would be snapshot 1, numbering would restart
  // at 2, and the ring would prune (delete) a file it never wrote.
  RuntimeContext ctx;
  const fs::path foreign = dir_ / "snap_4294967297.epsnap";
  std::ofstream(foreign) << "foreign";
  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.keepSnapshots = 2;
  std::vector<int> seqs;
  supCfg.onProgress = [&seqs](const SupervisorEvent& ev) {
    if (ev.kind == SupervisorEvent::Kind::kSnapshot) {
      seqs.push_back(ev.snapshotSeq);
    }
  };
  PlacementDB db = stdInstance();
  ASSERT_TRUE(runSupervisedFlow(db, traceConfig(nullptr), ctx, supCfg).ok());
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.front(), 0);
  EXPECT_TRUE(fs::exists(foreign));
}

}  // namespace
}  // namespace ep
