#include "qp/initial_place.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "qp/b2b.h"
#include "qp/sparse.h"
#include "util/context.h"
#include "util/log.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

constexpr int kCgMaxIterations = 300;
/// Relative residual at which each CG solve stops; see kMipOuterIterations.
constexpr double kCgTolerance = 1e-3;
/// Weight of the weak anchor to the region center added to every movable
/// when the design has no fixed pins (keeps the system SPD).
constexpr double kFallbackAnchor = 1e-6;
/// Deterministic jitter (fraction of region size) applied to the seed so
/// the first B2B linearization has distinct bounds.
constexpr double kSeedJitter = 1e-3;
constexpr std::uint64_t kSeed = 1;

}  // namespace

InitialPlaceResult quadraticInitialPlace(PlacementDB& db,
                                         RuntimeContext& rc) {
  InitialPlaceResult result;
  result.hpwlBefore = hpwl(db);

  const auto& movable = db.movable();
  const auto n = static_cast<std::int32_t>(movable.size());
  if (n == 0) {
    result.hpwlAfter = result.hpwlBefore;
    return result;
  }

  std::vector<std::int32_t> objToVar(db.objects.size(), -1);
  for (std::int32_t v = 0; v < n; ++v) {
    objToVar[static_cast<std::size_t>(movable[static_cast<std::size_t>(v)])] = v;
  }

  // Seed: region center plus deterministic jitter.
  const Point c = db.region.center();
  Rng rng(kSeed);
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  const double jx = kSeedJitter * db.region.width();
  const double jy = kSeedJitter * db.region.height();
  for (std::int32_t v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = c.x + rng.uniform(-jx, jx);
    y[static_cast<std::size_t>(v)] = c.y + rng.uniform(-jy, jy);
  }

  bool hasFixedPin = false;
  for (const auto& net : db.nets) {
    for (const auto& pin : net.pins) {
      if (db.objects[static_cast<std::size_t>(pin.obj)].fixed) {
        hasFixedPin = true;
        break;
      }
    }
    if (hasFixedPin) break;
  }

  // Upper bound on the B2B entries: a p-pin net makes 2p-3 connections of
  // at most 4 entries each, plus one anchor entry per movable.
  std::size_t maxEntries = hasFixedPin ? 0 : static_cast<std::size_t>(n);
  for (const auto& net : db.nets) {
    if (net.pins.size() >= 2) maxEntries += 4 * (2 * net.pins.size() - 3);
  }

  auto solveAxis = [&](Axis axis, std::vector<double>& pos) {
    CooBuilder builder(n);
    builder.reserve(maxEntries);
    std::vector<double> rhs(static_cast<std::size_t>(n), 0.0);
    buildB2B(db, axis, objToVar, pos, builder, rhs);
    if (!hasFixedPin) {
      const double anchorPos = (axis == Axis::kX) ? c.x : c.y;
      for (std::int32_t v = 0; v < n; ++v) {
        builder.addDiag(v, kFallbackAnchor);
        rhs[static_cast<std::size_t>(v)] += kFallbackAnchor * anchorPos;
      }
    }
    const Csr A = std::move(builder).build();
    const CgResult cg = cgSolve(A, rhs, pos, kCgMaxIterations,
                                kCgTolerance, &rc.pool());
    result.totalCgIterations += cg.iterations;
  };

  for (int it = 0; it < kMipOuterIterations; ++it) {
    solveAxis(Axis::kX, x);
    solveAxis(Axis::kY, y);
  }

  // Write back, clamping centers so every object stays inside the region.
  // (Objects larger than the region — not seen in practice — sit centered.)
  auto clampOrMid = [](double v, double lo, double hi) {
    return lo > hi ? 0.5 * (lo + hi) : std::clamp(v, lo, hi);
  };
  for (std::int32_t v = 0; v < n; ++v) {
    auto& o = db.objects[static_cast<std::size_t>(
        movable[static_cast<std::size_t>(v)])];
    const double cx =
        clampOrMid(x[static_cast<std::size_t>(v)], db.region.lx + o.w * 0.5,
                   db.region.hx - o.w * 0.5);
    const double cy =
        clampOrMid(y[static_cast<std::size_t>(v)], db.region.ly + o.h * 0.5,
                   db.region.hy - o.h * 0.5);
    o.setCenter(cx, cy);
  }

  result.hpwlAfter = hpwl(db);
  rc.log().info("mIP: HPWL %.4g -> %.4g (%d CG iterations)",
                result.hpwlBefore, result.hpwlAfter,
                result.totalCgIterations);
  return result;
}

}  // namespace ep
