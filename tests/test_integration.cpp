// Cross-module integration tests: whole-flow runs over the experiment
// suites, Bookshelf round-trips through the flow, and end-to-end
// determinism. These are the tests a release would gate on.
#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/bell.h"
#include "baseline/mincut.h"
#include "baseline/quadratic.h"
#include "bookshelf/bookshelf.h"
#include "cluster/cluster.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/suites.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "route/routability.h"
#include "timing/timing_driven.h"
#include "util/context.h"
#include "util/run_record.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

/// Shrink a suite spec so the sweep stays fast while keeping its character
/// (density cap, macro mix).
GenSpec shrunk(GenSpec spec) {
  spec.numCells = std::min<std::size_t>(spec.numCells, 700);
  spec.numMovableMacros = std::min<std::size_t>(spec.numMovableMacros, 6);
  return spec;
}

class SuiteFlow : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteFlow, EndToEndLegalAndConverged) {
  RuntimeContext ctx;
  PlacementDB db = generateCircuit(shrunk(suiteSpec(GetParam())));
  const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
  EXPECT_TRUE(res.mgpResult.converged) << GetParam();
  const auto rep = checkLegality(db);
  EXPECT_TRUE(rep.legal) << GetParam() << ": " << rep.firstIssue;
  // Detail-placed layout must respect the density cap within tolerance.
  EXPECT_LT(densityOverflow(db).overflow, 0.25) << GetParam();
  EXPECT_GT(res.finalHpwl, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, SuiteFlow,
    ::testing::Values("ispd05_adaptec1s", "ispd05_bigblue1s",
                      "ispd06_adaptec5s", "ispd06_newblue2s", "mms_adaptec1s",
                      "mms_newblue1s", "mms_newblue4s"));

TEST(Integration, FlowIsDeterministicEndToEnd) {
  RuntimeContext ctx;
  const GenSpec spec = shrunk(suiteSpec("mms_adaptec1s"));
  PlacementDB a = generateCircuit(spec);
  PlacementDB b = generateCircuit(spec);
  const FlowResult ra = *runSupervisedFlow(a, {}, ctx, plainPolicy());
  const FlowResult rb = *runSupervisedFlow(b, {}, ctx, plainPolicy());
  EXPECT_DOUBLE_EQ(ra.finalHpwl, rb.finalHpwl);
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objects[i].lx, b.objects[i].lx);
    EXPECT_DOUBLE_EQ(a.objects[i].ly, b.objects[i].ly);
  }
}

TEST(Integration, BookshelfRoundTripThroughFlow) {
  // Place a generated design, persist it as Bookshelf, read it back, and
  // verify the metrics survive the serialization.
  RuntimeContext ctx;
  const std::string dir = ::testing::TempDir() + "/flow_rt";
  std::filesystem::create_directories(dir);
  GenSpec spec = shrunk(suiteSpec("mms_adaptec1s"));
  PlacementDB db = generateCircuit(spec);
  runSupervisedFlow(db, {}, ctx, plainPolicy());
  const double placedHpwl = hpwl(db);
  ASSERT_TRUE(writeBookshelf(dir, "placed", db).ok());

  PlacementDB back;
  ASSERT_TRUE(readBookshelf(dir + "/placed.aux", back, ctx).ok());
  back.targetDensity = db.targetDensity;
  EXPECT_NEAR(hpwl(back), placedHpwl, 1e-6 * placedHpwl);
  EXPECT_TRUE(checkLegality(back).legal);
}

TEST(Integration, PlaceAnExternalBookshelfDesign) {
  // Simulates the eplace_cli path: the flow consumes a DB that came from
  // the parser (names, offsets, rows all through serialization).
  RuntimeContext ctx;
  const std::string dir = ::testing::TempDir() + "/flow_ext";
  std::filesystem::create_directories(dir);
  GenSpec spec = shrunk(suiteSpec("ispd05_adaptec1s"));
  const PlacementDB orig = generateCircuit(spec);
  ASSERT_TRUE(writeBookshelf(dir, "ext", orig).ok());

  PlacementDB db;
  ASSERT_TRUE(readBookshelf(dir + "/ext.aux", db, ctx).ok());
  const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
}

TEST(Integration, BaselinesShareTheFinishingPipeline) {
  // Every baseline's output must legalize to a fully legal layout — the
  // guarantee the table benches rely on for fair comparison.
  RuntimeContext ctx;
  const GenSpec spec = shrunk(suiteSpec("mms_bigblue1s"));
  for (int which = 0; which < 2; ++which) {
    PlacementDB db = generateCircuit(spec);
    if (which == 0) {
      minCutPlace(db, ctx);
    } else {
      quadraticPlace(db, ctx);
    }
    if (db.numMovableMacros() > 0) {
      legalizeMacros(db, ctx);
      for (auto& o : db.objects) {
        if (o.kind == ObjKind::kMacro) o.fixed = true;
      }
      db.finalize();
    }
    legalizeCells(db, ctx);
    detailPlace(db, ctx);
    const auto rep = checkLegality(db);
    EXPECT_TRUE(rep.legal) << "baseline " << which << ": " << rep.firstIssue;
  }
}

TEST(Integration, EplaceBeatsNaivePlacementOnQuality) {
  // Sanity on the headline claim's direction at tiny scale: ePlace's final
  // HPWL beats the min-cut baseline on a clustered netlist.
  RuntimeContext ctx;
  const GenSpec spec = shrunk(suiteSpec("ispd05_adaptec1s"));
  PlacementDB a = generateCircuit(spec);
  runSupervisedFlow(a, {}, ctx, plainPolicy());

  PlacementDB b = generateCircuit(spec);
  minCutPlace(b, ctx);
  legalizeCells(b, ctx);
  detailPlace(b, ctx);

  EXPECT_LT(hpwl(a), hpwl(b));
}

TEST(Integration, BaselinesExtensionsAndLadderPinnedBitExact) {
  // The goldens and regression baselines pin mIP, mGP, mLG, cGP and cDP.
  // This pins what they do not reach: the three baseline placers, the
  // routability and timing extensions, and the shape of the cluster
  // ladder. Each literal is the final HPWL's IEEE-754 bit pattern, so a
  // changed constant in any of them fails here.
  RuntimeContext ctx;
  auto design = [](std::uint64_t seed, std::size_t cells) {
    GenSpec spec;
    spec.name = "pin";
    spec.numCells = cells;
    spec.seed = seed;
    return generateCircuit(spec);
  };
  auto bits = [](double v) { return hexBits64(doubleBits(v)); };

  PlacementDB mc = design(41, 300);
  minCutPlace(mc, ctx);
  EXPECT_EQ(bits(hpwl(mc)), "0x40af5bee1f0701dc") << "minCutPlace";

  PlacementDB qp = design(42, 300);
  quadraticPlace(qp, ctx);
  EXPECT_EQ(bits(hpwl(qp)), "0x40ac92831f2ab80a") << "quadraticPlace";

  BellPlaceConfig bell;
  PlacementDB bc = design(43, 300);
  bellPlace(bc, ctx, bell);
  EXPECT_EQ(bits(hpwl(bc)), "0x40aaf3d45a371816") << "bellPlace (CG)";
  bell.useNesterov = true;
  PlacementDB bn = design(43, 300);
  bellPlace(bn, ctx, bell);
  EXPECT_EQ(bits(hpwl(bn)), "0x40aadbb16c55e859") << "bellPlace (Nesterov)";

  PlacementDB rt = design(44, 300);
  runSupervisedFlow(rt, {}, ctx, plainPolicy());
  EXPECT_GT(routabilityDrivenRefine(rt, ctx).rounds, 0);
  EXPECT_EQ(bits(hpwl(rt)), "0x40a9cfb793f4a7aa")
      << "routabilityDrivenRefine";

  // A clock below the seed run's critical path leaves negative slack, so
  // the reweighted rounds can win over the seed placement.
  TimingDrivenConfig td;
  td.clockFactor = 0.9;
  PlacementDB tm = design(45, 300);
  timingDrivenPlace(tm, ctx, td);
  EXPECT_EQ(bits(hpwl(tm)), "0x40a9d9e5bd7c6c6a") << "timingDrivenPlace";

  ClusterConfig cc;
  cc.minMovable = 150;
  const auto ladder = buildClusterLadder(design(46, 900), cc, &ctx);
  ASSERT_TRUE(ladder.ok());
  ASSERT_FALSE(ladder->empty());
  std::vector<std::size_t> movable;
  for (const auto& level : ladder->levels) {
    movable.push_back(level.fineMovable);
  }
  movable.push_back(ladder->levels.back().coarse.movable().size());
  EXPECT_EQ(movable, (std::vector<std::size_t>{900, 489, 276, 163, 104}))
      << "buildClusterLadder per-level movable counts";
}

TEST(Integration, ExtensionsRunOnTheCallersContext) {
  // timingDrivenPlace and routabilityDrivenRefine run every inner flow on
  // the context they are handed: a fault armed there fires inside them,
  // and the recoveries land in that context's stats and in no other.
  auto design = [](std::uint64_t seed) {
    GenSpec spec;
    spec.name = "onctx";
    spec.numCells = 300;
    spec.seed = seed;
    return generateCircuit(spec);
  };
  FaultSpec nan;
  nan.kind = FaultKind::kNaN;
  nan.atTick = 5;

  RuntimeContext timed(2);
  timed.faults().arm("nesterov.grad", nan);
  TimingDrivenConfig td;
  td.rounds = 1;
  PlacementDB tm = design(45);
  timingDrivenPlace(tm, timed, td);
  EXPECT_GT(timed.stats().value("gp.iterations"), 0.0);
  EXPECT_GT(timed.stats().value("gp.recoveries"), 0.0);
  EXPECT_EQ(timed.faults().fireCount("nesterov.grad"), 1);

  RuntimeContext placed(2);
  PlacementDB rt = design(44);
  ASSERT_TRUE(runSupervisedFlow(rt, {}, placed, plainPolicy()).ok());
  const double placedIterations = placed.stats().value("gp.iterations");
  RuntimeContext refined(2);
  refined.faults().arm("nesterov.grad", nan);
  EXPECT_GT(routabilityDrivenRefine(rt, refined).rounds, 0);
  EXPECT_GT(refined.stats().value("gp.iterations"), 0.0);
  EXPECT_GT(refined.stats().value("gp.recoveries"), 0.0);
  EXPECT_EQ(refined.faults().fireCount("nesterov.grad"), 1);
  EXPECT_EQ(placed.stats().value("gp.iterations"), placedIterations);
  EXPECT_EQ(placed.stats().value("gp.recoveries"), 0.0);

  RuntimeContext fresh(2);
  EXPECT_EQ(fresh.stats().value("gp.iterations"), 0.0);
  EXPECT_EQ(fresh.stats().value("gp.recoveries"), 0.0);
  EXPECT_EQ(fresh.faults().fireCount("nesterov.grad"), 0);
}

}  // namespace
}  // namespace ep
