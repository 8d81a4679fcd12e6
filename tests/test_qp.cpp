#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "qp/b2b.h"
#include "qp/initial_place.h"
#include "qp/sparse.h"
#include "util/context.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

TEST(Sparse, BuildAndMultiply) {
  CooBuilder b(3);
  b.addDiag(0, 2.0);
  b.addDiag(1, 3.0);
  b.addDiag(2, 1.0);
  b.addOffDiag(0, 1, -1.0);
  b.addDiag(0, 0.5);  // duplicate coordinates sum
  const Csr A = std::move(b).build();
  EXPECT_EQ(A.n, 3);
  std::vector<double> x{1.0, 2.0, 3.0}, y(3);
  A.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5 * 1.0 - 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 * 1.0 + 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(Sparse, AddSpring) {
  CooBuilder b(2);
  b.addSpring(0, 1, 4.0);
  const Csr A = std::move(b).build();
  std::vector<double> x{1.0, -1.0}, y(2);
  A.multiply(x, y);
  // A = [[4,-4],[-4,4]]; A x = [8, -8].
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], -8.0);
}

TEST(Sparse, DuplicatesSumInInsertionOrder) {
  // 1e16 + 1 rounds back to 1e16, so the sum of {1e16, 1, -1e16} is 0 in
  // that order and 1 in the order {1e16, -1e16, 1}. Entries of other rows
  // are interleaved with the duplicates.
  CooBuilder b(3);
  b.addDiag(0, 1e16);
  b.addOffDiag(1, 2, 5.0);
  b.addDiag(0, 1.0);
  b.addDiag(2, 1e16);
  b.addDiag(2, -1e16);
  b.addDiag(0, -1e16);
  b.addDiag(2, 1.0);
  const Csr A = std::move(b).build();
  ASSERT_EQ(A.start, (std::vector<std::int32_t>{0, 1, 2, 4}));
  EXPECT_EQ(A.col, (std::vector<std::int32_t>{0, 2, 1, 2}));
  EXPECT_EQ(A.val[0], 0.0);
  EXPECT_EQ(A.val[3], 1.0);
}

TEST(Sparse, CsrEqualsDenseAccumulationWithColumnsAscending) {
  // Random coordinates, most of them repeated, fed to the builder and to a
  // dense matrix that sums in the same call order: the CSR holds exactly
  // the touched coordinates, with the dense sums bit for bit.
  const std::int32_t n = 37;
  const auto un = static_cast<std::size_t>(n);
  Rng rng(23);
  CooBuilder b(n);
  std::vector<double> dense(un * un, 0.0);
  std::vector<bool> touched(un * un, false);
  auto add = [&](std::int32_t i, std::int32_t j, double w) {
    const std::size_t at = static_cast<std::size_t>(i) * un +
                           static_cast<std::size_t>(j);
    dense[at] += w;
    touched[at] = true;
  };
  for (int k = 0; k < 40 * n; ++k) {
    const auto i = static_cast<std::int32_t>(rng.below(un));
    const auto j = static_cast<std::int32_t>(rng.below(un));
    const double w = rng.uniform(-2.0, 2.0);
    if (k % 2 == 0) {
      b.addDiag(i, w);
      add(i, i, w);
    } else {
      b.addOffDiag(i, j, w);
      add(i, j, w);
      add(j, i, w);
    }
  }
  const Csr A = std::move(b).build();

  ASSERT_EQ(A.start.size(), un + 1);
  EXPECT_EQ(A.start.front(), 0);
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < un; ++r) {
    for (auto k = static_cast<std::size_t>(A.start[r]);
         k < static_cast<std::size_t>(A.start[r + 1]); ++k) {
      const auto c = static_cast<std::size_t>(A.col[k]);
      if (k > static_cast<std::size_t>(A.start[r])) {
        EXPECT_LT(A.col[k - 1], A.col[k]) << "row " << r;
      }
      ASSERT_TRUE(touched[r * un + c]) << r << "," << c;
      EXPECT_EQ(A.val[k], dense[r * un + c]) << r << "," << c;
    }
  }
  for (const bool t : touched) nnz += t ? 1 : 0;
  EXPECT_EQ(A.col.size(), nnz);
  EXPECT_EQ(A.val.size(), nnz);
}

TEST(Sparse, CgSolvesRandomSpdSystem) {
  // Diagonally dominant random symmetric system.
  const std::int32_t n = 30;
  Rng rng(11);
  CooBuilder b(n);
  for (std::int32_t i = 0; i < n; ++i) {
    b.addDiag(i, 10.0 + rng.uniform());
    for (std::int32_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.2)) {
        const double w = rng.uniform(-0.5, 0.5);
        b.addOffDiag(i, j, w);
      }
    }
  }
  const Csr A = std::move(b).build();
  std::vector<double> xTrue(static_cast<std::size_t>(n));
  for (auto& v : xTrue) v = rng.uniform(-3.0, 3.0);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  A.multiply(xTrue, rhs);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto res = cgSolve(A, rhs, x, 500, 1e-10);
  EXPECT_LT(res.residual, 1e-8);
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                xTrue[static_cast<std::size_t>(i)], 1e-6);
  }
}

/// A 50-variable tridiagonal SPD system.
Csr tridiagonalSystem() {
  const std::int32_t n = 50;
  Rng rng(13);
  CooBuilder b(n);
  for (std::int32_t i = 0; i < n; ++i) b.addDiag(i, 5.0 + rng.uniform());
  for (std::int32_t i = 0; i + 1 < n; ++i) b.addOffDiag(i, i + 1, -1.0);
  return std::move(b).build();
}

TEST(Sparse, CgWarmStartFewerIterations) {
  const Csr A = tridiagonalSystem();
  std::vector<double> rhs(static_cast<std::size_t>(A.n), 1.0);
  std::vector<double> cold(static_cast<std::size_t>(A.n), 0.0);
  const auto coldRes = cgSolve(A, rhs, cold, 500, 1e-10);
  auto warm = cold;  // exact solution as the start
  const auto warmRes = cgSolve(A, rhs, warm, 500, 1e-10);
  EXPECT_LT(warmRes.iterations, coldRes.iterations);
}

TEST(Sparse, CgIterationCountAtCapIsMaxIter) {
  const Csr A = tridiagonalSystem();
  const std::vector<double> rhs(static_cast<std::size_t>(A.n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(A.n), 0.0);
  const auto res = cgSolve(A, rhs, x, 3, 1e-10);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_GT(res.residual, 1e-10);  // the cap, not convergence, stopped it
}

TEST(Sparse, CgIterationCountOnConvergenceUnchanged) {
  // A converged solve counts the steps taken before the residual test
  // passed; the value is pinned so the count's meaning cannot drift.
  const Csr A = tridiagonalSystem();
  const std::vector<double> rhs(static_cast<std::size_t>(A.n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(A.n), 0.0);
  const auto res = cgSolve(A, rhs, x, 500, 1e-10);
  EXPECT_LT(res.residual, 1e-10);
  EXPECT_EQ(res.iterations, 14);
}

TEST(Sparse, PooledCgBitIdenticalToSerial) {
  // Large enough that the pool really splits the SpMV and vector updates.
  const std::int32_t n = 20000;
  Rng rng(17);
  CooBuilder b(n);
  for (std::int32_t i = 0; i < n; ++i) b.addDiag(i, 4.0 + rng.uniform());
  for (std::int32_t i = 0; i + 1 < n; ++i) b.addOffDiag(i, i + 1, -1.0);
  for (std::int32_t i = 0; i + 97 < n; i += 3) b.addOffDiag(i, i + 97, -0.5);
  const Csr A = std::move(b).build();
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);

  std::vector<double> serial(static_cast<std::size_t>(n), 0.0);
  const auto ref = cgSolve(A, rhs, serial, 200, 1e-12);
  for (const int threads : {2, 3, 4, 7}) {
    ThreadPool pool(threads);
    std::vector<double> par(static_cast<std::size_t>(n), 0.0);
    const auto res = cgSolve(A, rhs, par, 200, 1e-12, &pool);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.residual),
              std::bit_cast<std::uint64_t>(ref.residual));
    for (std::size_t i = 0; i < par.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(par[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "threads " << threads << " index " << i;
    }
  }
}

/// Two movables on a 2-pin net each anchored to fixed pads: the quadratic
/// optimum is the weighted average of the fixed positions.
TEST(B2B, TwoPinNetsSolveToFixedAverage) {
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 3; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.fixed = (i != 0);
    db.objects.push_back(o);
  }
  db.objects[1].setCenter(10, 10);
  db.objects[2].setCenter(90, 30);
  Net n1{"n1", {{0, 0, 0}, {1, 0, 0}}, 1.0};
  Net n2{"n2", {{0, 0, 0}, {2, 0, 0}}, 1.0};
  db.nets = {n1, n2};
  db.finalize();

  std::vector<std::int32_t> objToVar{0, -1, -1};
  std::vector<double> x{50.0};
  CooBuilder builder(1);
  std::vector<double> rhs(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x, builder, rhs);
  const Csr A = std::move(builder).build();
  std::vector<double> sol{50.0};
  cgSolve(A, rhs, sol, 100, 1e-12);
  // B2B on 2-pin nets is exact: weights cancel so the optimum is where the
  // pulls balance. With distances 40 each the weights are equal -> midpoint.
  EXPECT_NEAR(sol[0], 50.0, 1e-6);

  // Asymmetric start: B2B linearizes |x-10| + |x-90|, whose derivative is
  // zero anywhere between the pads — so any interior linearization point is
  // already stationary and must be reproduced exactly (the B2B fixed point
  // property).
  std::vector<double> x2{20.0};
  CooBuilder b2(1);
  std::vector<double> rhs2(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x2, b2, rhs2);
  std::vector<double> sol2{0.0};
  cgSolve(std::move(b2).build(), rhs2, sol2, 100, 1e-12);
  EXPECT_NEAR(sol2[0], 20.0, 1e-6);
}

TEST(B2B, PinOffsetsShiftSolution) {
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 2; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 2;
    o.h = 2;
    o.fixed = (i == 1);
    db.objects.push_back(o);
  }
  db.objects[1].setCenter(50, 50);
  // Movable pin offset +3: its center must settle at 47 to align the pins.
  Net n{"n", {{0, 3.0, 0}, {1, 0, 0}}, 1.0};
  db.nets = {n};
  db.finalize();
  std::vector<std::int32_t> objToVar{0, -1};
  std::vector<double> x{10.0};
  CooBuilder builder(1);
  std::vector<double> rhs(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x, builder, rhs);
  std::vector<double> sol{10.0};
  cgSolve(std::move(builder).build(), rhs, sol, 100, 1e-12);
  EXPECT_NEAR(sol[0], 47.0, 1e-6);
}

TEST(B2B, QuadraticNetCostSmoke) {
  PlacementDB db;
  db.region = {0, 0, 10, 10};
  for (int i = 0; i < 2; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    db.objects.push_back(o);
  }
  db.objects[0].setCenter(1, 1);
  db.objects[1].setCenter(4, 5);
  db.nets.push_back({"n", {{0, 0, 0}, {1, 0, 0}}, 1.0});
  db.finalize();
  EXPECT_DOUBLE_EQ(quadraticNetCost(db), 9.0 + 16.0);
}

TEST(InitialPlace, ReducesHpwlAndStaysInRegion) {
  // Star of movables around fixed pads: mIP must collapse wirelength
  // massively versus a spread random start.
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 200, 200};
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 2;
    o.h = 1;
    o.setCenter(rng.uniform(1, 199), rng.uniform(1, 199));
    db.objects.push_back(o);
  }
  for (int i = 0; i < 4; ++i) {
    Object o;
    o.name = "p" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.fixed = true;
    o.setCenter(i < 2 ? 5.0 : 195.0, (i % 2) ? 5.0 : 195.0);
    db.objects.push_back(o);
  }
  for (int i = 0; i < 49; ++i) {
    db.nets.push_back(
        {"n" + std::to_string(i),
         {{i, 0, 0}, {i + 1, 0, 0}, {50 + (i % 4), 0, 0}},
         1.0});
  }
  db.finalize();
  const auto res = quadraticInitialPlace(db, ctx);
  EXPECT_LT(res.hpwlAfter, res.hpwlBefore);
  for (const auto& o : db.objects) {
    if (o.fixed) continue;
    EXPECT_GE(o.lx, db.region.lx - 1e-9);
    EXPECT_LE(o.lx + o.w, db.region.hx + 1e-9);
  }
}

TEST(InitialPlace, HandlesNoFixedPins) {
  // Fully floating design: the fallback anchor must keep the system SPD and
  // pull everything to the region center.
  RuntimeContext ctx;
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 10; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.setCenter(5.0 + i, 5.0);
    db.objects.push_back(o);
  }
  for (int i = 0; i < 9; ++i) {
    db.nets.push_back({"n" + std::to_string(i), {{i, 0, 0}, {i + 1, 0, 0}}, 1.0});
  }
  db.finalize();
  const auto res = quadraticInitialPlace(db, ctx);
  (void)res;
  for (const auto& o : db.objects) {
    EXPECT_NEAR(o.center().x, 50.0, 5.0);
    EXPECT_NEAR(o.center().y, 50.0, 5.0);
  }
}

TEST(InitialPlace, Deterministic) {
  RuntimeContext ctx;
  PlacementDB db1, db2;
  for (PlacementDB* db : {&db1, &db2}) {
    db->region = {0, 0, 100, 100};
    for (int i = 0; i < 20; ++i) {
      Object o;
      o.name = "c" + std::to_string(i);
      o.w = 1;
      o.h = 1;
      db->objects.push_back(o);
    }
    Object pad;
    pad.name = "p";
    pad.w = 1;
    pad.h = 1;
    pad.fixed = true;
    pad.setCenter(10, 10);
    db->objects.push_back(pad);
    for (int i = 0; i < 19; ++i) {
      db->nets.push_back(
          {"n" + std::to_string(i), {{i, 0, 0}, {i + 1, 0, 0}, {20, 0, 0}}, 1.0});
    }
    db->finalize();
    quadraticInitialPlace(*db, ctx);
  }
  for (std::size_t i = 0; i < db1.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(db1.objects[i].lx, db2.objects[i].lx);
    EXPECT_DOUBLE_EQ(db1.objects[i].ly, db2.objects[i].ly);
  }
}

}  // namespace
}  // namespace ep
