// eplace/checkpoint: the snapshot payload codec (bit-exact round trips of a
// flat mid-mGP and a mid-ladder state), every rejection path of the decoder
// and the supervisor's fall-back past a rejected file, the snapshot ring
// (retention, numbering across runs, names that do not belong to it), and
// resuming from a mid-mGP snapshot written by an earlier build
// (tests/data/ckpt_compat_mid_mgp.epsnap).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "eplace/checkpoint.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "util/context.h"
#include "util/rng.h"
#include "util/snapshot.h"

#ifndef EP_TEST_DATA_DIR
#error "EP_TEST_DATA_DIR must point at tests/data"
#endif

namespace ep {
namespace {

namespace fs = std::filesystem;

PlacementDB instance(std::size_t cells = 80, double netsPerCell = 1.1) {
  GenSpec spec;
  spec.name = "ckpt";
  spec.numCells = cells;
  spec.numIo = 16;
  spec.netsPerCell = netsPerCell;
  spec.seed = 5;
  return generateCircuit(spec);
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

/// Doubles that only a bit-exact codec preserves: -0, a subnormal, the
/// neighbours of 1, and values with a full 53-bit mantissa.
std::vector<double> awkward(std::size_t n, double salt) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: v.push_back(-0.0); break;
      case 1: v.push_back(4.9e-324 * static_cast<double>(i)); break;
      case 2: v.push_back(std::nextafter(1.0, 2.0) + salt); break;
      case 3: v.push_back(std::nextafter(1.0, 0.0) - salt); break;
      default: v.push_back(salt / 3.0 + static_cast<double>(i) / 7.0);
    }
  }
  return v;
}

FillerSet fillerSet(std::size_t n, double salt) {
  FillerSet f;
  f.w = 1.0 / 3.0 + salt;
  f.h = 2.0 / 3.0 + salt;
  f.cx = awkward(n, salt);
  f.cy = awkward(n, salt + 0.5);
  return f;
}

GpCheckpointState optimizerState(std::size_t n) {
  GpCheckpointState gp;
  gp.opt.u = awkward(n, 0.1);
  gp.opt.cur = awkward(n, 0.2);
  gp.opt.prev = awkward(n, 0.3);
  gp.opt.curGrad = awkward(n, 0.4);
  gp.opt.prevGrad = awkward(n, 0.5);
  gp.opt.a = 1.0 / 7.0;
  gp.opt.lastAlpha = 3e-310;
  gp.opt.iter = 17;
  gp.lambda = 1.0 / 11.0;
  gp.tau = 0.4375;
  gp.prevHpwl = 1234.5678901234567;
  gp.refHpwl = 2345.6789012345678;
  gp.iter = 18;
  return gp;
}

/// A mid-mGP flow state with every payload field set to a distinct value.
FlowState midMgpState() {
  FlowState st;
  st.mixedSize = true;
  StageMetrics m;
  m.hpwl = 1.0 / 3.0;
  m.overflow = 0.8125;
  m.seconds = 0.1;
  m.iterations = 6;
  m.ran = true;
  st.res.mip = m;
  m.hpwl = -0.0;
  m.iterations = 0;
  m.ran = false;
  st.res.mgp = m;
  st.res.mgpResult.iterations = 41;
  st.res.mgpResult.finalLambda = 3.25e-5;
  st.res.mgpResult.status = Status::timeout("budget");
  st.res.cgpResult.status = Status::numericalDivergence("blew up");
  st.fillers = fillerSet(9, 0.25);
  return st;
}

/// Re-encodes a decoded checkpoint through a fresh copy of the instance, so
/// the comparison covers every field the payload carries.
SnapshotData reencode(const Checkpoint& cp, PlacementDB fresh,
                      PlacementDB* levelFresh, int poolThreads) {
  restorePositions(fresh, cp.positions);
  FlowState st;
  st.mixedSize = cp.mixedSize;
  st.res = cp.res;
  st.fillers = cp.fillers;
  Rng jitter(0);
  jitter.loadState(cp.rng.data());
  if (levelFresh != nullptr) restorePositions(*levelFresh, cp.levelPositions);
  return encodeCheckpoint(fresh, st, cp.next, cp.macrosFrozen, jitter,
                          cp.hasGp ? &cp.gp : nullptr, poolThreads, cp.level,
                          levelFresh, &cp.levelFillers);
}

TEST(CheckpointCodec, FlatMidMgpStateRoundTripsBitExact) {
  PlacementDB db = instance();
  const FlowState st = midMgpState();
  Rng jitter(99);
  (void)jitter.uniform();
  const GpCheckpointState gp = optimizerState(12);
  const SnapshotData snap = encodeCheckpoint(db, st, FlowStage::kMgp, true,
                                             jitter, &gp, 3);
  EXPECT_EQ(snap.find("mlevel"), nullptr);
  ASSERT_NE(snap.find("optimizer"), nullptr);

  const StatusOr<Checkpoint> cp = decodeCheckpoint(snap, db);
  ASSERT_TRUE(cp.ok()) << cp.status().toString();
  EXPECT_EQ(cp->next, FlowStage::kMgp);
  EXPECT_TRUE(cp->mixedSize);
  EXPECT_TRUE(cp->macrosFrozen);
  EXPECT_EQ(cp->level, -1);
  EXPECT_EQ(cp->res.mgpResult.iterations, 41);
  EXPECT_EQ(cp->res.mgpResult.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(cp->res.cgpResult.status.code(),
            StatusCode::kNumericalDivergence);
  EXPECT_TRUE(cp->res.mip.ran);
  EXPECT_FALSE(cp->res.mgp.ran);
  EXPECT_EQ(bits(cp->positions), bits(capturePositions(db)));
  EXPECT_EQ(bits(cp->fillers.cx), bits(st.fillers.cx));
  EXPECT_EQ(bits(cp->fillers.cy), bits(st.fillers.cy));
  ASSERT_TRUE(cp->hasGp);
  EXPECT_EQ(bits(cp->gp.opt.prevGrad), bits(gp.opt.prevGrad));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cp->gp.opt.lastAlpha),
            std::bit_cast<std::uint64_t>(gp.opt.lastAlpha));
  EXPECT_EQ(cp->gp.iter, 18);
  Rng restored(0);
  restored.loadState(cp->rng.data());
  EXPECT_EQ(restored.next(), jitter.next());

  EXPECT_EQ(reencode(*cp, instance(), nullptr, 3).sections, snap.sections);
}

TEST(CheckpointCodec, MidLadderStateRoundTripsBitExact) {
  PlacementDB db = instance();
  PlacementDB level = instance(40);
  const FlowState st = midMgpState();
  const Rng jitter(7);
  const GpCheckpointState gp = optimizerState(6);
  const FillerSet levelFillers = fillerSet(4, 0.75);
  const SnapshotData snap =
      encodeCheckpoint(db, st, FlowStage::kMgp, false, jitter, &gp, 1,
                       /*level=*/2, &level, &levelFillers);
  ASSERT_NE(snap.find("mlevel"), nullptr);

  const StatusOr<Checkpoint> cp = decodeCheckpoint(snap, db);
  ASSERT_TRUE(cp.ok()) << cp.status().toString();
  EXPECT_EQ(cp->level, 2);
  EXPECT_EQ(bits(cp->levelPositions), bits(capturePositions(level)));
  EXPECT_EQ(bits(cp->levelFillers.cx), bits(levelFillers.cx));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cp->levelFillers.h),
            std::bit_cast<std::uint64_t>(levelFillers.h));
  EXPECT_TRUE(cp->hasGp);

  PlacementDB levelFresh = instance(40);
  EXPECT_EQ(reencode(*cp, instance(), &levelFresh, 1).sections,
            snap.sections);
}

// --- rejections ------------------------------------------------------------

/// A valid boundary snapshot of instance(): resumes at mGP.
SnapshotData validSnapshot() {
  PlacementDB db = instance();
  return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false, Rng(1),
                          nullptr, 1);
}

std::vector<std::uint8_t> doublesPayload(const std::vector<double>& v) {
  ByteWriter w;
  w.doubles(v);
  return w.take();
}

struct Rejection {
  const char* name;
  std::function<SnapshotData()> make;
};

const Rejection kRejections[] = {
    {"OtherInstanceName",
     [] {
       PlacementDB db = instance();
       db.name = "other";
       return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false,
                               Rng(1), nullptr, 1);
     }},
    {"OtherObjectCount",
     [] {
       PlacementDB db = instance(81);
       return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false,
                               Rng(1), nullptr, 1);
     }},
    {"OtherNetCount",
     [] {
       PlacementDB db = instance(80, 1.6);
       EXPECT_EQ(db.objects.size(), instance().objects.size());
       EXPECT_NE(db.nets.size(), instance().nets.size());
       return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false,
                               Rng(1), nullptr, 1);
     }},
    {"StageCursorPastDone",
     [] {
       PlacementDB db = instance();
       return encodeCheckpoint(
           db, FlowState{},
           static_cast<FlowStage>(static_cast<int>(FlowStage::kDone) + 1),
           false, Rng(1), nullptr, 1);
     }},
    {"LevelCursorWithoutMlevel",
     [] {
       PlacementDB db = instance();
       return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false,
                               Rng(1), nullptr, 1, /*level=*/1);
     }},
    {"PositionsOfWrongLength",
     [] {
       SnapshotData snap = validSnapshot();
       PlacementDB db = instance();
       std::vector<double> pos = capturePositions(db);
       pos.pop_back();
       pos.pop_back();
       snap.add("positions", doublesPayload(pos));
       return snap;
     }},
    {"NonFiniteMovablePosition",
     [] {
       SnapshotData snap = validSnapshot();
       PlacementDB db = instance();
       std::vector<double> pos = capturePositions(db);
       const auto k = static_cast<std::size_t>(db.movable().back());
       pos[2 * k + 1] = std::numeric_limits<double>::quiet_NaN();
       snap.add("positions", doublesPayload(pos));
       return snap;
     }},
    {"OptimizerVectorsOfMismatchedLength",
     [] {
       PlacementDB db = instance();
       GpCheckpointState gp = optimizerState(8);
       gp.opt.curGrad.pop_back();
       return encodeCheckpoint(db, FlowState{}, FlowStage::kMgp, false,
                               Rng(1), &gp, 1);
     }},
};

class CheckpointRejection : public ::testing::TestWithParam<Rejection> {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("ckpt_reject_") + GetParam().name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(CheckpointRejection, DecoderRejectsAsInvalidInput) {
  const StatusOr<Checkpoint> cp = decodeCheckpoint(GetParam().make(),
                                                   instance());
  ASSERT_FALSE(cp.ok());
  EXPECT_EQ(cp.status().code(), StatusCode::kInvalidInput)
      << cp.status().toString();
}

TEST_P(CheckpointRejection, SupervisorCountsItAndFallsBackToTheOlderFile) {
  RuntimeContext ctx;
  ASSERT_TRUE(
      writeSnapshotFile(snapshotPath(dir_.string(), 0), validSnapshot()).ok());
  ASSERT_TRUE(
      writeSnapshotFile(snapshotPath(dir_.string(), 1), GetParam().make())
          .ok());
  SupervisorConfig sup = plainPolicy();
  sup.resumeDir = dir_.string();
  FlowConfig cfg;
  cfg.gp.maxIterations = 60;
  PlacementDB db = instance();
  SupervisorReport report;
  const auto res = runSupervisedFlow(db, cfg, ctx, sup, &report);
  ASSERT_TRUE(res.ok()) << res.status().toString();
  EXPECT_EQ(report.snapshotsRejected, 1);
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kMgp);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointRejection, ::testing::ValuesIn(kRejections),
    [](const ::testing::TestParamInfo<Rejection>& info) {
      return std::string(info.param.name);
    });

// --- the ring --------------------------------------------------------------

class CheckpointRing : public ::testing::Test {
  RuntimeContext ctx;
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ckpt_ring_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs a checkpointed flow into dir_ and returns the snapshot numbers
  /// it reported, in order.
  std::vector<int> checkpointedRun(int keep) {
    SupervisorConfig sup;
    sup.snapshotDir = dir_.string();
    sup.saveEvery = 10;
    sup.keepSnapshots = keep;
    std::vector<int> seqs;
    sup.onProgress = [&seqs](const SupervisorEvent& ev) {
      if (ev.kind == SupervisorEvent::Kind::kSnapshot) {
        seqs.push_back(ev.snapshotSeq);
      }
    };
    FlowConfig cfg;
    cfg.gp.maxIterations = 60;
    PlacementDB db = instance();
    EXPECT_TRUE(runSupervisedFlow(db, cfg, ctx, sup).ok());
    return seqs;
  }

  void touch(const std::string& name) const {
    std::ofstream(dir_ / name) << "x";
  }

  fs::path dir_;
};

TEST_F(CheckpointRing, KeepsExactlyTheNewestFiles) {
  const std::vector<int> seqs = checkpointedRun(3);
  ASSERT_GT(seqs.size(), 3u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<int>(i));
  }
  const int last = seqs.back();
  const std::vector<std::string> expected = {
      snapshotPath(dir_.string(), last), snapshotPath(dir_.string(), last - 1),
      snapshotPath(dir_.string(), last - 2)};
  EXPECT_EQ(listSnapshots(dir_.string()), expected);
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 3u);
}

TEST_F(CheckpointRing, SecondRunContinuesAfterTheHighestNumber) {
  const std::vector<int> first = checkpointedRun(2);
  ASSERT_FALSE(first.empty());
  const std::vector<int> second = checkpointedRun(2);
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.front(), first.back() + 1);
  EXPECT_EQ(nextSnapshotSeq(dir_.string()), second.back() + 1);
}

TEST_F(CheckpointRing, NamesOutsideTheRingAreNeitherListedNorPruned) {
  touch("snap_000003.epsnap");
  touch("snap_000007.epsnap");
  const std::vector<std::string> foreign = {
      "snap_4294967297.epsnap",  // wraps to 1 in 32 bits
      "snap_2147483647.epsnap",  // INT_MAX: its successor would overflow
      "snap_99999999999999999999999.epsnap",
      "snap_.epsnap",
      "snap_12a.epsnap",
      "snap_000001.epsnap.tmp",
      "notes.txt"};
  for (const auto& name : foreign) touch(name);

  const std::string dir = dir_.string();
  EXPECT_EQ(listSnapshots(dir),
            (std::vector<std::string>{dir + "/snap_000007.epsnap",
                                      dir + "/snap_000003.epsnap"}));
  EXPECT_EQ(nextSnapshotSeq(dir), 8);
  pruneSnapshots(dir, 1);
  EXPECT_FALSE(fs::exists(dir_ / "snap_000003.epsnap"));
  EXPECT_TRUE(fs::exists(dir_ / "snap_000007.epsnap"));
  for (const auto& name : foreign) EXPECT_TRUE(fs::exists(dir_ / name)) << name;
  pruneSnapshots(dir, 0);  // at least one is always kept
  EXPECT_TRUE(fs::exists(dir_ / "snap_000007.epsnap"));
}

TEST(CheckpointRingPaths, MissingDirectoryIsAnEmptyRing) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "ckpt_ring_missing").string();
  fs::remove_all(dir);
  EXPECT_TRUE(listSnapshots(dir).empty());
  EXPECT_EQ(nextSnapshotSeq(dir), 0);
  pruneSnapshots(dir, 1);
  EXPECT_EQ(snapshotPath(dir, 42), dir + "/snap_000042.epsnap");
}

// --- compatibility -----------------------------------------------------------

/// The instance the committed fixture was written for.
PlacementDB compatInstance() {
  GenSpec spec;
  spec.name = "ckpt_compat";
  spec.numCells = 120;
  spec.numIo = 16;
  spec.seed = 21;
  return generateCircuit(spec);
}

// tests/data/ckpt_compat_mid_mgp.epsnap was written by the supervisor before
// the payload codec moved into eplace/checkpoint: default FlowConfig and
// SupervisorConfig, saveEvery = 5, run killed at mGP iteration 12, newest
// file kept (its optimizer state continues at iteration 10). A changed
// codec that can no longer read it breaks every resumable run on disk.
TEST(CheckpointCompat, SnapshotFromEarlierBuildResumesMidMgp) {
  RuntimeContext ctx;
  const fs::path dir = fs::path(::testing::TempDir()) / "ckpt_compat";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(fs::path(EP_TEST_DATA_DIR) / "ckpt_compat_mid_mgp.epsnap",
                dir / "snap_000002.epsnap");

  const StatusOr<Checkpoint> cp =
      readCheckpoint((dir / "snap_000002.epsnap").string(), compatInstance());
  ASSERT_TRUE(cp.ok()) << cp.status().toString();
  EXPECT_EQ(cp->next, FlowStage::kMgp);
  ASSERT_TRUE(cp->hasGp);
  EXPECT_EQ(cp->gp.iter, 10);
  EXPECT_EQ(cp->level, -1);

  FlowConfig cfg;
  int firstMgpIter = -1;
  cfg.gpTrace = [&firstMgpIter](const std::string& stage,
                                const GpIterTrace& it) {
    if (stage == "mGP" && firstMgpIter < 0) firstMgpIter = it.iter;
  };
  SupervisorConfig sup;
  sup.resumeDir = dir.string();
  PlacementDB db = compatInstance();
  SupervisorReport report;
  const auto res = runSupervisedFlow(db, cfg, ctx, sup, &report);
  fs::remove_all(dir);
  ASSERT_TRUE(res.ok()) << res.status().toString();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.snapshotsRejected, 0);
  EXPECT_EQ(report.resumeStage, FlowStage::kMgp);
  // The optimizer state was restored: mGP continued at iteration 10
  // instead of starting over.
  EXPECT_EQ(firstMgpIter, 10);
  bool mgpResumed = false;
  for (const StageReport& r : report.stages) {
    if (r.stage == FlowStage::kMgp) mgpResumed = r.resumed;
  }
  EXPECT_TRUE(mgpResumed);
  EXPECT_TRUE(res->status.ok()) << res->status.toString();
  EXPECT_TRUE(res->legality.legal) << res->legality.firstIssue;
}

}  // namespace
}  // namespace ep
