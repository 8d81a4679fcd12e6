// Failure injection and degenerate-input robustness: the library must
// degrade gracefully (reported errors, no crashes, no silent corruption)
// on inputs a downstream user will eventually feed it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bookshelf/bookshelf.h"
#include "eplace/global_placer.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

// ---------- degenerate instances through the full flow ----------

TEST(Robustness, SingleCellDesign) {
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 16, 16};
  Object o;
  o.name = "c0";
  o.w = 2;
  o.h = 1;
  o.setCenter(8, 8);
  db.objects.push_back(o);
  Object pad;
  pad.name = "p";
  pad.w = 1;
  pad.h = 1;
  pad.fixed = true;
  pad.setCenter(1, 1);
  db.objects.push_back(pad);
  db.nets.push_back({"n", {{0, 0, 0}, {1, 0, 0}}, 1.0});
  for (int r = 0; r < 16; ++r) {
    db.rows.push_back({0, static_cast<double>(r), 1.0, 1.0, 16});
  }
  db.finalize();
  const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
}

TEST(Robustness, DesignWithoutNets) {
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 32, 32};
  for (int i = 0; i < 20; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 2;
    o.h = 1;
    o.setCenter(16, 16);
    db.objects.push_back(o);
  }
  for (int r = 0; r < 32; ++r) {
    db.rows.push_back({0, static_cast<double>(r), 1.0, 1.0, 32});
  }
  db.finalize();
  // No wirelength force at all: density must still spread and legalize.
  const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
  EXPECT_DOUBLE_EQ(res.finalHpwl, 0.0);
}

TEST(Robustness, NoMovableObjects) {
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 32, 32};
  Object o;
  o.name = "blk";
  o.w = 8;
  o.h = 8;
  o.fixed = true;
  o.setCenter(16, 16);
  db.objects.push_back(o);
  db.rows.push_back({0, 0, 1.0, 1.0, 32});
  db.finalize();
  const FlowResult res = *runSupervisedFlow(db, {}, ctx, plainPolicy());
  EXPECT_TRUE(res.legality.legal);
}

TEST(Robustness, ExtremeUtilizationStillTerminates) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.name = "packed";
  spec.numCells = 400;
  spec.utilization = 0.97;  // almost no whitespace, no filler budget
  spec.seed = 5;
  PlacementDB db = generateCircuit(spec);
  GpConfig cfg;
  cfg.maxIterations = 400;
  quadraticInitialPlace(db, ctx);
  GlobalPlacer gp(db, db.movable(), cfg, ctx);
  gp.makeFillersFromDb();  // likely zero fillers
  const GpResult res = gp.run();
  EXPECT_GT(res.iterations, 0);
  // Must make real spreading progress even if 10% tau is out of reach.
  EXPECT_LT(res.finalOverflow, 0.5);
}

TEST(Robustness, LegalizerReportsImpossibleCapacity) {
  // More cell area than row capacity: must not crash and must report the
  // unplaced remainder instead of overlapping cells silently.
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 10, 2};
  db.rows.push_back({0, 0, 1.0, 1.0, 10});
  db.rows.push_back({0, 1, 1.0, 1.0, 10});
  for (int i = 0; i < 30; ++i) {  // 30 area into 20 capacity
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.setCenter(5, 1);
    db.objects.push_back(o);
  }
  db.finalize();
  const LegalizeResult res = legalizeCells(db, ctx);
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.unplaced, 10);
  // The cells that were placed (row-aligned) are pairwise legal; the
  // unplaced remainder stays at its off-lattice input position.
  auto placed = [&](const Object& o) {
    return (o.ly == 0.0 || o.ly == 1.0) && o.lx == std::round(o.lx);
  };
  int placedOverlaps = 0;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (!placed(db.objects[i])) continue;
    for (std::size_t j = i + 1; j < db.objects.size(); ++j) {
      if (!placed(db.objects[j])) continue;
      if (db.objects[i].rect().overlapArea(db.objects[j].rect()) > 1e-9) {
        ++placedOverlaps;
      }
    }
  }
  EXPECT_EQ(placedOverlaps, 0);
}

TEST(Robustness, MlgWithWallToWallMacros) {
  // Macros that barely fit: the annealer must still find a packing.
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 32, 32};
  for (int r = 0; r < 32; ++r) {
    db.rows.push_back({0, static_cast<double>(r), 1.0, 1.0, 32});
  }
  for (int i = 0; i < 4; ++i) {
    Object o;
    o.name = "m" + std::to_string(i);
    o.kind = ObjKind::kMacro;
    o.w = 14;
    o.h = 14;
    o.setCenter(16, 16);  // all piled at the center
    db.objects.push_back(o);
  }
  db.finalize();
  MlgConfig cfg;
  cfg.maxOuterIterations = 40;
  const MlgResult res = legalizeMacros(db, ctx, cfg);
  EXPECT_TRUE(res.legal) << "Om=" << res.overlapAfter;
}

// ---------- bookshelf failure injection ----------

class BookshelfCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: these cases run as separate ctest processes in
    // parallel, and a shared fixture dir would let one test's SetUp rewrite
    // files another test is mid-read on (the reader legitimately opens each
    // file twice — counting pass, then fill pass).
    dir_ = ::testing::TempDir() + "/corrupt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    GenSpec spec;
    spec.numCells = 30;
    spec.seed = 3;
    db_ = generateCircuit(spec);
    ASSERT_TRUE(writeBookshelf(dir_, "c", db_).ok());
  }
  std::string dir_;
  PlacementDB db_;
};

TEST_F(BookshelfCorruption, MissingNodesFile) {
  RuntimeContext ctx;
  std::filesystem::remove(dir_ + "/c.nodes");
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
}

TEST_F(BookshelfCorruption, UnknownNodeInNets) {
  RuntimeContext ctx;
  std::ofstream out(dir_ + "/c.nets", std::ios::app);
  out << "NetDegree : 2 bad\n  ghost B : 0 0\n  c0 B : 0 0\n";
  out.close();
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("ghost"), std::string::npos);
}

TEST_F(BookshelfCorruption, PinLineOutsideNet) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nets");
    out << "UCLA nets 1.0\nNumNets : 1\nNumPins : 1\n  c0 B : 0 0\n";
  }
  PlacementDB db;
  EXPECT_FALSE(readBookshelf(dir_ + "/c.aux", db, ctx).ok());
}

TEST_F(BookshelfCorruption, TruncatedNodesLine) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nodes");
    out << "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n  lonely\n";
  }
  PlacementDB db;
  EXPECT_FALSE(readBookshelf(dir_ + "/c.aux", db, ctx).ok());
}

TEST_F(BookshelfCorruption, NonNumericTokensReportedWithLineNumber) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nodes");
    out << "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n"
        << "  cell width height\n";  // words where numbers belong
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.code(), StatusCode::kInvalidInput);
  EXPECT_NE(res.message().find("non-numeric node dims"), std::string::npos);
  EXPECT_NE(res.message().find("c.nodes:4:"), std::string::npos)
      << res.message();
}

TEST_F(BookshelfCorruption, TruncatedNodesCountMismatch) {
  // NumNodes promises 5 rows but the file ends after 2 — the classic
  // half-copied benchmark. Must be caught, not read as a 2-cell design.
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nodes");
    out << "UCLA nodes 1.0\nNumNodes : 5\nNumTerminals : 0\n"
        << "  a 1 1\n  b 1 1\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("truncated file?"), std::string::npos)
      << res.message();
}

TEST_F(BookshelfCorruption, NetPinCountMismatch) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nets");
    out << "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
        << "NetDegree : 3 n0\n  c0 B : 0 0\n  c1 B : 0 0\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("expects 3 pins, got 2"), std::string::npos)
      << res.message();
}

TEST_F(BookshelfCorruption, NumPinsTotalMismatch) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nets");
    out << "UCLA nets 1.0\nNumNets : 1\nNumPins : 5\n"
        << "NetDegree : 2 n0\n  c0 B : 0 0\n  c1 B : 0 0\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("NumPins declares 5"), std::string::npos)
      << res.message();
}

TEST_F(BookshelfCorruption, EmptyNetRejected) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.nets");
    out << "UCLA nets 1.0\nNumNets : 1\nNumPins : 0\nNetDegree : 0 n0\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("zero pins"), std::string::npos)
      << res.message();
}

TEST_F(BookshelfCorruption, NonNumericPlCoordinates) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.pl");
    out << "UCLA pl 1.0\nc0 here there : N\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.message().find("non-numeric coordinates"), std::string::npos);
  EXPECT_NE(res.message().find("c.pl:2:"), std::string::npos) << res.message();
}

TEST_F(BookshelfCorruption, InjectedMidFileTruncationNeverCrashes) {
  // The "bookshelf.line" fault site simulates the stream dying mid-read;
  // the parser must fail with a typed error, not crash or return garbage.
  RuntimeContext ctx;
  ctx.faults().arm("bookshelf.line", {FaultKind::kTruncate, /*atTick=*/5, 1});
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/c.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.code(), StatusCode::kInvalidInput);
}

TEST_F(BookshelfCorruption, ExtraWhitespaceAndCommentsAreFine) {
  // Robustness in the other direction: odd-but-legal formatting parses.
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/c.aux");
    out << "# a comment\nRowBasedPlacement :   c.nodes   c.nets c.wts c.pl "
           "c.scl  \n";
  }
  PlacementDB db;
  EXPECT_TRUE(readBookshelf(dir_ + "/c.aux", db, ctx).ok());
  EXPECT_EQ(db.objects.size(), db_.objects.size());
}

// ---------- metric edge cases ----------

TEST(Robustness, MetricsOnEmptyDb) {
  PlacementDB db;
  db.region = {0, 0, 10, 10};
  db.finalize();
  EXPECT_DOUBLE_EQ(hpwl(db), 0.0);
  EXPECT_DOUBLE_EQ(densityOverflow(db).overflow, 0.0);
  EXPECT_TRUE(checkLegality(db).legal);
}

TEST(Robustness, OverflowWithZeroMovableArea) {
  PlacementDB db;
  db.region = {0, 0, 10, 10};
  Object o;
  o.name = "b";
  o.w = 4;
  o.h = 4;
  o.fixed = true;
  db.objects.push_back(o);
  db.finalize();
  EXPECT_DOUBLE_EQ(densityOverflow(db).overflow, 0.0);
}

// ---------- thread-pool fault containment ----------

TEST(Robustness, ThrowingPoolTaskSurfacesAsStatusNotTerminate) {
  // "parallel.task" makes one pool task throw mid-flow. The flow boundary
  // must convert that into StatusCode::kInternal instead of
  // letting the exception escape (which would std::terminate from a worker
  // or unwind through main).
  RuntimeContext ctx(4);
  ctx.faults().arm("parallel.task", {FaultKind::kNaN, /*atTick=*/3, 1});
  GenSpec spec;
  spec.name = "pooltask";
  spec.numCells = 300;
  spec.seed = 5;
  PlacementDB db = generateCircuit(spec);
  const StatusOr<FlowResult> res =
      runSupervisedFlow(db, {}, ctx, plainPolicy());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  EXPECT_NE(res.status().message().find("parallel.task"), std::string::npos)
      << res.status().toString();
}

TEST(Robustness, PoolTaskFaultOnOneThreadStillTyped) {
  // Even the single-threaded (inline) execution path honors the site, so
  // chaos sweeps behave the same whatever --threads is.
  RuntimeContext ctx(1);
  ctx.faults().arm("parallel.task", {FaultKind::kNaN, /*atTick=*/0, 1});
  GenSpec spec;
  spec.name = "pooltask1";
  spec.numCells = 300;
  spec.seed = 6;
  PlacementDB db = generateCircuit(spec);
  const StatusOr<FlowResult> res =
      runSupervisedFlow(db, {}, ctx, plainPolicy());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ep
