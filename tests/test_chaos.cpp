// Chaos sweep (ctest -L chaos): every registered fault-injection site is
// armed in turn against the full pipeline — generate, write Bookshelf, read
// it back, run the supervised mixed-size flow with durable snapshots. The
// contract under any single fault: a typed ep::Status (or a recovered OK
// run), finite in-region positions, and never a crash. Pair with the asan
// preset (EP_SANITIZE=address) for memory-safety coverage of the same paths.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "bookshelf/bookshelf.h"
#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "util/context.h"
#include "util/fault_injector.h"

namespace ep {
namespace {

namespace fs = std::filesystem;

bool placementFinite(const PlacementDB& db) {
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (!std::isfinite(o.lx) || !std::isfinite(o.ly)) return false;
  }
  return true;
}

class ChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    std::string name = GetParam();
    for (auto& c : name) {
      if (c == '.') c = '_';
    }
    dir_ = fs::path(::testing::TempDir()) / ("chaos_test_" + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(ChaosTest, SingleFaultNeverCrashesTheSupervisedFlow) {
  const std::string site = GetParam();

  // Stream sites corrupt bytes/lines; numeric sites corrupt values; io.*
  // sites return typed errors from the durable-write path. The io.* faults
  // are armed persistently (count = -1) so every attempt fails and the
  // retry policy exhausts — the strongest storage-fault case: the
  // supervisor must degrade to snapshot-less mode and still finish.
  FaultSpec spec;
  const bool ioSite = site.rfind("io.", 0) == 0;
  const bool streamSite = site == "bookshelf.line" || site == "snapshot.write";
  spec.kind = ioSite          ? FaultKind::kError
              : streamSite    ? FaultKind::kTruncate
                              : FaultKind::kNaN;
  spec.atTick = site == "bookshelf.line" ? 50 : (ioSite ? 0 : 3);
  spec.count = ioSite ? -1 : 1;

  GenSpec gen;
  gen.name = "chaos";
  gen.numCells = 200;
  gen.numMovableMacros = 2;
  gen.seed = 5;
  const PlacementDB generated = generateCircuit(gen);
  ASSERT_TRUE(writeBookshelf(dir_.string(), "chaos", generated).ok());

  RuntimeContext ctx;
  ctx.faults().arm(site, spec);

  PlacementDB db;
  const Status rd = readBookshelf((dir_ / "chaos.aux").string(), db, ctx);
  if (!rd.ok()) {
    // The reader hit the fault: a typed rejection is the correct outcome.
    EXPECT_TRUE(rd.code() == StatusCode::kInvalidInput ||
                rd.code() == StatusCode::kIo)
        << rd.toString();
    return;
  }

  FlowConfig cfg;
  cfg.gp.maxIterations = 250;
  SupervisorConfig sup;
  sup.snapshotDir = (dir_ / "snaps").string();
  sup.saveEvery = 25;
  SupervisorReport report;
  const auto run = runSupervisedFlow(db, cfg, ctx, sup, &report);
  if (!run.ok()) {
    EXPECT_NE(run.status().code(), StatusCode::kOk);
    return;
  }
  // Degradation is allowed (run->status may be non-OK); corruption is not.
  EXPECT_TRUE(placementFinite(db));
  EXPECT_TRUE(std::isfinite(run->finalHpwl));
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, ChaosTest, ::testing::ValuesIn(knownFaultSites()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (auto& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ep
