// Thread-count determinism: the placer must produce bit-identical results
// for any --threads value (docs/PERFORMANCE.md). Every parallel kernel is
// designed so each double is computed by exactly the same FP expression
// sequence as the serial code — these tests enforce that contract at the
// whole-stage level, comparing positions bit-for-bit (not within an eps).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "eplace/global_placer.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "qp/initial_place.h"
#include "util/context.h"

namespace ep {
namespace {

PlacementDB circuit(std::uint64_t seed, std::size_t cells,
                    std::size_t macros = 0) {
  GenSpec spec;
  spec.name = "det";
  spec.numCells = cells;
  spec.numMovableMacros = macros;
  spec.seed = seed;
  return generateCircuit(spec);
}

std::vector<double> movablePositions(const PlacementDB& db) {
  std::vector<double> v;
  for (auto i : db.movable()) {
    const Point c = db.objects[static_cast<std::size_t>(i)].center();
    v.push_back(c.x);
    v.push_back(c.y);
  }
  return v;
}

/// Bitwise equality over doubles: EXPECT_EQ would conflate -0.0 and 0.0.
void expectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "coordinate " << i << ": " << a[i] << " vs " << b[i];
  }
}

struct RunOutcome {
  std::vector<double> positions;
  double hpwl = 0.0;
  int iterations = 0;
};

/// mGP on a `threads`-worker context from a fresh copy of the instance.
RunOutcome runMgp(std::uint64_t seed, int threads) {
  RuntimeContext ctx(threads);
  PlacementDB db = circuit(seed, 400);
  quadraticInitialPlace(db, ctx);
  GlobalPlacer gp(db, db.movable(), GpConfig{}, ctx);
  gp.makeFillersFromDb();
  const GpResult res = gp.run();
  EXPECT_TRUE(res.status.ok());
  return {movablePositions(db), res.finalHpwl, res.iterations};
}

/// Mixed-size flow (mGP + mLG + cGP, no detail) on `threads` workers.
RunOutcome runMixedFlow(std::uint64_t seed, int threads) {
  RuntimeContext ctx(threads);
  PlacementDB db = circuit(seed, 300, 4);
  FlowConfig cfg;
  cfg.runDetail = false;
  const FlowResult res =
      *runSupervisedFlow(db, cfg, ctx, plainPolicy());
  return {movablePositions(db), res.finalHpwl, res.mgp.iterations};
}

/// mIP alone on a `threads`-worker context: its CG runs on the pool.
std::vector<double> runMip(const char* suiteName, int threads) {
  RuntimeContext ctx(threads);
  PlacementDB db = generateCircuit(suiteSpec(suiteName));
  quadraticInitialPlace(db, ctx);
  return movablePositions(db);
}

using Determinism = ::testing::Test;

TEST_F(Determinism, MgpOneVsFourThreads) {
  const RunOutcome serial = runMgp(11, 1);
  const RunOutcome parallel = runMgp(11, 4);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.hpwl),
            std::bit_cast<std::uint64_t>(parallel.hpwl));
  expectBitIdentical(serial.positions, parallel.positions);
}

TEST_F(Determinism, MixedSizeFlowOneVsFourThreads) {
  const RunOutcome serial = runMixedFlow(12, 1);
  const RunOutcome parallel = runMixedFlow(12, 4);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.hpwl),
            std::bit_cast<std::uint64_t>(parallel.hpwl));
  expectBitIdentical(serial.positions, parallel.positions);
}

TEST_F(Determinism, RepeatedFourThreadRunsIdentical) {
  const RunOutcome first = runMgp(13, 4);
  const RunOutcome second = runMgp(13, 4);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.hpwl),
            std::bit_cast<std::uint64_t>(second.hpwl));
  expectBitIdentical(first.positions, second.positions);
}

TEST_F(Determinism, OddThreadCountMatchesToo) {
  // Partition boundaries move with the thread count; 3 exercises uneven
  // n/P splits that 1/2/4 do not.
  const RunOutcome serial = runMgp(14, 1);
  const RunOutcome three = runMgp(14, 3);
  expectBitIdentical(serial.positions, three.positions);
}

TEST_F(Determinism, InitialPlaceOneThreeFourThreads) {
  // scale_1k stays below the pool's grain (its CG runs inline);
  // mms_bigblue2s has ~3.2k movables, so the SpMV and vector updates are
  // really split, unevenly at 3 and 7 threads.
  for (const char* name : {"scale_1k", "mms_bigblue2s"}) {
    SCOPED_TRACE(name);
    const std::vector<double> serial = runMip(name, 1);
    expectBitIdentical(serial, runMip(name, 3));
    expectBitIdentical(serial, runMip(name, 4));
    expectBitIdentical(serial, runMip(name, 7));
  }
}

}  // namespace
}  // namespace ep
