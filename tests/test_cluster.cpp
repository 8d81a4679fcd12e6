// Multilevel clustering (src/cluster) contracts:
//   * buildClusterLadder is bit-deterministic at any thread count — the
//     ladder topology, coarse geometry and net rewiring never depend on
//     the RuntimeContext's pool size;
//   * per-level conservation — total movable area matches the fine level
//     and fixed objects pass through 1:1 with bit-exact geometry, so the
//     fixed charge the density model sees is identical at every level;
//   * uncoarsen ∘ coarsen maps every fine object exactly once (members
//     CSR is a partition, fineToCoarse is total and consistent);
//   * the supervised multilevel V-cycle completes, records per-level
//     rows, stays bit-identical across thread counts, ends on pinned final
//     HPWL bits, and resumes bit-exactly after a kill inside a coarse
//     level.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <ios>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "model/netlist.h"
#include "util/context.h"

namespace ep {
namespace {

namespace fs = std::filesystem;

PlacementDB circuit(std::uint64_t seed, std::size_t cells,
                    std::size_t macros = 0) {
  GenSpec spec;
  spec.name = "cluster";
  spec.numCells = cells;
  spec.numMovableMacros = macros;
  spec.seed = seed;
  return generateCircuit(spec);
}

ClusterConfig smallLadderConfig() {
  ClusterConfig cfg;
  cfg.minMovable = 150;
  cfg.maxLevels = 3;
  return cfg;
}

void expectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// Structural + geometric equality of two ladders, down to the last bit.
void expectSameLadder(const ClusterLadder& a, const ClusterLadder& b) {
  ASSERT_EQ(a.depth(), b.depth());
  for (std::size_t l = 0; l < a.depth(); ++l) {
    const ClusterLevel& la = a.levels[l];
    const ClusterLevel& lb = b.levels[l];
    EXPECT_EQ(la.fineObjects, lb.fineObjects) << "level " << l;
    EXPECT_EQ(la.fineMovable, lb.fineMovable) << "level " << l;
    EXPECT_EQ(la.fineNets, lb.fineNets) << "level " << l;
    EXPECT_EQ(la.fineToCoarse, lb.fineToCoarse) << "level " << l;
    EXPECT_EQ(la.memberStart, lb.memberStart) << "level " << l;
    EXPECT_EQ(la.members, lb.members) << "level " << l;
    ASSERT_EQ(la.coarse.objects.size(), lb.coarse.objects.size())
        << "level " << l;
    for (std::size_t i = 0; i < la.coarse.objects.size(); ++i) {
      const Object& oa = la.coarse.objects[i];
      const Object& ob = lb.coarse.objects[i];
      EXPECT_EQ(oa.name, ob.name);
      EXPECT_EQ(oa.kind, ob.kind);
      EXPECT_EQ(oa.fixed, ob.fixed);
      expectBitEqual(oa.w, ob.w, "w of " + oa.name);
      expectBitEqual(oa.h, ob.h, "h of " + oa.name);
      expectBitEqual(oa.lx, ob.lx, "lx of " + oa.name);
      expectBitEqual(oa.ly, ob.ly, "ly of " + oa.name);
    }
    ASSERT_EQ(la.coarse.nets.size(), lb.coarse.nets.size()) << "level " << l;
    for (std::size_t n = 0; n < la.coarse.nets.size(); ++n) {
      const Net& na = la.coarse.nets[n];
      const Net& nb = lb.coarse.nets[n];
      ASSERT_EQ(na.pins.size(), nb.pins.size());
      expectBitEqual(na.weight, nb.weight, "weight of " + na.name);
      for (std::size_t p = 0; p < na.pins.size(); ++p) {
        EXPECT_EQ(na.pins[p].obj, nb.pins[p].obj);
        expectBitEqual(na.pins[p].ox, nb.pins[p].ox, "pin ox");
        expectBitEqual(na.pins[p].oy, nb.pins[p].oy, "pin oy");
      }
    }
  }
}

using ClusterTest = ::testing::Test;

TEST_F(ClusterTest, LadderBitDeterministicAcrossThreadCounts) {
  const PlacementDB db = circuit(21, 1200);
  ClusterLadder ladders[3];
  const int threads[3] = {1, 3, 4};
  for (int i = 0; i < 3; ++i) {
    RuntimeContext ctx(threads[i]);
    const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ladders[i] = *r;
  }
  ASSERT_FALSE(ladders[0].empty());
  expectSameLadder(ladders[0], ladders[1]);
  expectSameLadder(ladders[0], ladders[2]);
}

TEST_F(ClusterTest, RepeatedBuildsIdentical) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(22, 900, 2);
  const auto a = buildClusterLadder(db, smallLadderConfig(), &ctx);
  const auto b = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  expectSameLadder(*a, *b);
}

TEST_F(ClusterTest, MovableAreaConservedPerLevel) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(23, 1500);
  const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  const PlacementDB* fine = &db;
  for (std::size_t l = 0; l < r->depth(); ++l) {
    const ClusterLevel& lvl = r->levels[l];
    const double fineArea = fine->totalMovableArea();
    const double coarseArea = lvl.coarse.totalMovableArea();
    // Cluster area is the exact sum of member areas; only the summation
    // order differs, so the totals agree to tight relative tolerance.
    EXPECT_NEAR(coarseArea, fineArea, 1e-12 * fineArea) << "level " << l;
    EXPECT_LT(lvl.coarse.numMovable(), fine->numMovable()) << "level " << l;
    fine = &lvl.coarse;
  }
}

TEST_F(ClusterTest, FixedChargePassesThroughBitExact) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(24, 1000, 0);
  const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  const PlacementDB* fine = &db;
  for (std::size_t l = 0; l < r->depth(); ++l) {
    const ClusterLevel& lvl = r->levels[l];
    std::size_t fineFixed = 0;
    std::size_t coarseFixed = 0;
    for (std::size_t i = 0; i < fine->objects.size(); ++i) {
      const Object& fo = fine->objects[i];
      if (!fo.fixed) continue;
      ++fineFixed;
      // Every fixed object maps to a fixed coarse copy with identical
      // geometry, so the density model's fixed charge never drifts.
      const auto c = static_cast<std::size_t>(lvl.fineToCoarse[i]);
      ASSERT_LT(c, lvl.coarse.objects.size());
      const Object& co = lvl.coarse.objects[c];
      EXPECT_TRUE(co.fixed) << fo.name;
      EXPECT_EQ(co.kind, fo.kind) << fo.name;
      expectBitEqual(co.w, fo.w, "w of " + fo.name);
      expectBitEqual(co.h, fo.h, "h of " + fo.name);
      expectBitEqual(co.lx, fo.lx, "lx of " + fo.name);
      expectBitEqual(co.ly, fo.ly, "ly of " + fo.name);
    }
    for (const Object& o : lvl.coarse.objects) {
      if (o.fixed) ++coarseFixed;
    }
    EXPECT_EQ(coarseFixed, fineFixed) << "level " << l;
    expectBitEqual(lvl.coarse.fixedAreaInRegion(), fine->fixedAreaInRegion(),
                   "fixed area, level " + std::to_string(l));
    fine = &lvl.coarse;
  }
}

TEST_F(ClusterTest, EveryFineObjectMappedExactlyOnce) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(25, 1300, 1);
  const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  std::size_t fineCount = db.objects.size();
  for (std::size_t l = 0; l < r->depth(); ++l) {
    const ClusterLevel& lvl = r->levels[l];
    ASSERT_EQ(lvl.fineObjects, fineCount) << "level " << l;
    ASSERT_EQ(lvl.fineToCoarse.size(), fineCount) << "level " << l;
    const std::size_t coarseCount = lvl.coarse.objects.size();
    ASSERT_EQ(lvl.memberStart.size(), coarseCount + 1) << "level " << l;
    ASSERT_EQ(lvl.members.size(), fineCount) << "level " << l;

    // The members CSR is a partition of the fine ids: every fine object
    // appears exactly once, inside the row of the cluster fineToCoarse
    // points it at.
    std::vector<int> seen(fineCount, 0);
    for (std::size_t c = 0; c < coarseCount; ++c) {
      ASSERT_LE(lvl.memberStart[c], lvl.memberStart[c + 1]);
      for (std::int32_t m = lvl.memberStart[c]; m < lvl.memberStart[c + 1];
           ++m) {
        const std::int32_t fid = lvl.members[static_cast<std::size_t>(m)];
        ASSERT_GE(fid, 0);
        ASSERT_LT(static_cast<std::size_t>(fid), fineCount);
        ++seen[static_cast<std::size_t>(fid)];
        EXPECT_EQ(lvl.fineToCoarse[static_cast<std::size_t>(fid)],
                  static_cast<std::int32_t>(c));
      }
    }
    for (std::size_t i = 0; i < fineCount; ++i) {
      EXPECT_EQ(seen[i], 1) << "fine object " << i << ", level " << l;
    }
    fineCount = coarseCount;
  }
}

TEST_F(ClusterTest, UncoarsenSeedsMembersAtClusterCenter) {
  RuntimeContext ctx;
  PlacementDB db = circuit(26, 800);
  const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  ClusterLevel lvl = r->levels[0];

  // Scatter the coarse placement deterministically, then uncoarsen.
  for (std::size_t c = 0; c < lvl.coarse.objects.size(); ++c) {
    Object& o = lvl.coarse.objects[c];
    if (o.fixed) continue;
    o.setCenter(db.region.lx + static_cast<double>(c % 37) + 0.25,
                db.region.ly + static_cast<double>(c % 29) + 0.75);
  }
  ASSERT_TRUE(uncoarsenPositions(lvl, db).ok());

  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    const Object& fo = db.objects[i];
    const auto c = static_cast<std::size_t>(lvl.fineToCoarse[i]);
    const Object& co = lvl.coarse.objects[c];
    if (fo.fixed) {
      expectBitEqual(fo.lx, co.lx, "fixed lx of " + fo.name);
      expectBitEqual(fo.ly, co.ly, "fixed ly of " + fo.name);
      continue;
    }
    const std::size_t memberCount =
        static_cast<std::size_t>(lvl.memberStart[c + 1] - lvl.memberStart[c]);
    if (memberCount == 1) {
      // Pass-through movables copy the coarse position bit-exactly.
      expectBitEqual(fo.center().x, co.center().x, "x of " + fo.name);
      expectBitEqual(fo.center().y, co.center().y, "y of " + fo.name);
    } else {
      // Multi-member clusters seed every member at the cluster center.
      expectBitEqual(fo.center().x, co.center().x, "x of " + fo.name);
      expectBitEqual(fo.center().y, co.center().y, "y of " + fo.name);
    }
  }
}

TEST_F(ClusterTest, UncoarsenRejectsMismatchedInstance) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(27, 600);
  const auto r = buildClusterLadder(db, smallLadderConfig(), &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  PlacementDB other = circuit(27, 400);
  EXPECT_FALSE(uncoarsenPositions(r->levels[0], other).ok());
}

TEST_F(ClusterTest, TinyInstanceYieldsEmptyLadder) {
  RuntimeContext ctx;
  const PlacementDB db = circuit(28, 100);
  ClusterConfig cfg;  // default floor 3000 movables
  const auto r = buildClusterLadder(db, cfg, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// ---------------------------------------------------------------------------
// Supervised multilevel V-cycle.
// ---------------------------------------------------------------------------

struct KillSignal {};

FlowConfig fastFlow() {
  FlowConfig cfg;
  cfg.gp.maxIterations = 400;
  cfg.runDetail = true;
  return cfg;
}

SupervisorConfig multilevelConfig() {
  SupervisorConfig sup;
  sup.multilevel.enabled = true;
  sup.multilevel.minMovable = 300;
  sup.multilevel.cluster.minMovable = 150;
  sup.multilevel.cluster.maxLevels = 2;
  sup.multilevel.levelMaxIterations = 80;
  return sup;
}

struct MlOutcome {
  std::vector<double> positions;
  double finalHpwl = 0.0;
  std::vector<std::pair<int, std::size_t>> levels;  ///< (level, clusters)
};

MlOutcome runMultilevel(std::uint64_t seed, int threads) {
  RuntimeContext ctx(threads);
  PlacementDB db = circuit(seed, 900);
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, fastFlow(), ctx, multilevelConfig(), &report);
  EXPECT_TRUE(run.ok());
  MlOutcome out;
  if (run.ok()) {
    out.finalHpwl = run->finalHpwl;
    for (const auto& lm : run->mgpLevels) {
      out.levels.emplace_back(lm.level, lm.clusters);
      EXPECT_TRUE(lm.metrics.ran);
      EXPECT_GT(lm.metrics.iterations, 0);
    }
  }
  for (auto i : db.movable()) {
    const Point c = db.objects[static_cast<std::size_t>(i)].center();
    out.positions.push_back(c.x);
    out.positions.push_back(c.y);
  }
  return out;
}

TEST_F(ClusterTest, SupervisedMultilevelRunsCoarseLevelsThenFlat) {
  const MlOutcome out = runMultilevel(31, 1);
  // 900 movables over a 150 floor with maxLevels=2 must engage the ladder.
  ASSERT_FALSE(out.levels.empty());
  // Coarsest level first (highest index), cluster counts growing as the
  // ladder uncoarsens toward the flat netlist.
  for (std::size_t i = 1; i < out.levels.size(); ++i) {
    EXPECT_GT(out.levels[i - 1].first, out.levels[i].first);
    EXPECT_GT(out.levels[i].second, out.levels[i - 1].second);
  }
  EXPECT_GT(out.finalHpwl, 0.0);
}

TEST_F(ClusterTest, SupervisedMultilevelThreadCountDeterministic) {
  const MlOutcome serial = runMultilevel(32, 1);
  const MlOutcome parallel = runMultilevel(32, 4);
  ASSERT_FALSE(serial.levels.empty());
  ASSERT_EQ(serial.levels, parallel.levels);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.finalHpwl),
            std::bit_cast<std::uint64_t>(parallel.finalHpwl));
  ASSERT_EQ(serial.positions.size(), parallel.positions.size());
  for (std::size_t i = 0; i < serial.positions.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.positions[i]),
              std::bit_cast<std::uint64_t>(parallel.positions[i]))
        << "coordinate " << i;
  }
}

// The V-cycle's final HPWL, pinned bit for bit: freeing each ladder level
// once it has seeded the next, and charging the ladder to the memory
// budget, must not move it.
TEST_F(ClusterTest, SupervisedMultilevelFinalHpwlPinned) {
  const MlOutcome out = runMultilevel(31, 1);
  ASSERT_FALSE(out.levels.empty());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.finalHpwl),
            0x40ccac54a18c7d05ULL)
      << std::hexfloat << out.finalHpwl;
}

/// Kills a checkpointing multilevel run at iteration 25 of coarse stage
/// `killStage`, resumes it in a fresh run, and checks that the resumed
/// trajectory and final placement match an uninterrupted run bit for bit.
void expectKilledLevelResumesBitExact(const std::string& killStage) {
  RuntimeContext ctx;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("cluster_resume_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Trace sink keyed by (stage, iter); coarse stages are "mGP@L<k>".
  struct TraceRec {
    std::string stage;
    int iter;
    double hpwl;
  };
  const auto traced = [&killStage](std::vector<TraceRec>* out,
                                   int killIter) {
    FlowConfig cfg = fastFlow();
    cfg.gpTrace = [out, killIter, killStage](const std::string& stage,
                                             const GpIterTrace& it) {
      if (out != nullptr) out->push_back({stage, it.iter, it.hpwl});
      if (killIter >= 0 && it.iter == killIter && stage == killStage) {
        throw KillSignal{};
      }
    };
    return cfg;
  };

  // Reference: uninterrupted multilevel run.
  std::vector<TraceRec> refTrace;
  PlacementDB ref = circuit(33, 900);
  const auto refRun =
      runSupervisedFlow(ref, traced(&refTrace, -1), ctx, multilevelConfig());
  ASSERT_TRUE(refRun.ok());
  ASSERT_FALSE(refRun->mgpLevels.empty());

  // Killed run: checkpoints every 7 iterations, dies at iter 25 of
  // `killStage`.
  SupervisorConfig supCfg = multilevelConfig();
  supCfg.snapshotDir = dir.string();
  supCfg.saveEvery = 7;
  {
    PlacementDB killed = circuit(33, 900);
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(killed, traced(nullptr, 25), ctx, supCfg);
          (void)r;
        },
        KillSignal);
  }
  ASSERT_FALSE(fs::is_empty(dir));

  // Resume from a fresh process image; the trajectory must replay the
  // reference bit-for-bit from the restored iteration onward.
  std::vector<TraceRec> resTrace;
  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = dir.string();
  PlacementDB resumed = circuit(33, 900);
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(
          resumed, traced(&resTrace, -1), ctx, resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kMgp);

  std::map<std::pair<std::string, int>, double> refByIter;
  for (const auto& t : refTrace) refByIter[{t.stage, t.iter}] = t.hpwl;
  ASSERT_FALSE(resTrace.empty());
  // The resume continues inside the killed level; coarser levels are
  // not run again.
  EXPECT_EQ(resTrace.front().stage, killStage);
  for (const auto& t : resTrace) {
    const auto it = refByIter.find({t.stage, t.iter});
    ASSERT_NE(it, refByIter.end()) << t.stage << " #" << t.iter;
    EXPECT_EQ(it->second, t.hpwl) << t.stage << " #" << t.iter;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(refRun->finalHpwl),
            std::bit_cast<std::uint64_t>(resRun->finalHpwl));
  ASSERT_EQ(ref.objects.size(), resumed.objects.size());
  for (std::size_t i = 0; i < ref.objects.size(); ++i) {
    EXPECT_EQ(ref.objects[i].lx, resumed.objects[i].lx)
        << ref.objects[i].name;
    EXPECT_EQ(ref.objects[i].ly, resumed.objects[i].ly)
        << ref.objects[i].name;
  }
  fs::remove_all(dir);
}

// Killed inside the coarsest level: the resume restarts it from its
// mid-level snapshot.
TEST_F(ClusterTest, KilledCoarseLevelResumesBitExact) {
  expectKilledLevelResumesBitExact("mGP@L1");
}

// Killed inside the finer level: the resume rebuilds the ladder, drops the
// coarsest level, which had already seeded L0, and continues in L0.
TEST_F(ClusterTest, KilledFinerLevelResumesBitExact) {
  expectKilledLevelResumesBitExact("mGP@L0");
}

}  // namespace
}  // namespace ep
