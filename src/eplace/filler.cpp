#include "eplace/filler.h"

#include <algorithm>
#include <cmath>

#include "util/context.h"
#include "util/log.h"
#include "util/rng.h"

namespace ep {

FillerSet makeFillers(const PlacementDB& db, std::uint64_t seed,
                      RuntimeContext& rc) {
  FillerSet fillers;

  const double movableArea = db.totalMovableArea();
  const double budget = db.targetDensity * db.freeArea() - movableArea;
  if (budget <= 0.0) {
    rc.log().warn("makeFillers: no whitespace budget (utilization too high)");
    return fillers;
  }

  if (db.numMovable() == 0) return fillers;

  // Middle-80% average cell area (macros excluded from the sizing sample so
  // a few huge blocks do not inflate fillers).
  std::vector<double> areas;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (o.kind == ObjKind::kStdCell) areas.push_back(o.area());
  }
  if (areas.empty()) {
    for (auto i : db.movable()) {
      areas.push_back(db.objects[static_cast<std::size_t>(i)].area());
    }
  }
  std::sort(areas.begin(), areas.end());
  const std::size_t lo = areas.size() / 10;
  const std::size_t hi = areas.size() - areas.size() / 10;
  double sum = 0.0;
  for (std::size_t k = lo; k < hi; ++k) sum += areas[k];
  const double avg = sum / static_cast<double>(std::max<std::size_t>(1, hi - lo));
  if (avg <= 0.0) return fillers;
  const double dim = std::sqrt(avg);

  fillers.w = dim;
  fillers.h = dim;
  const auto count = static_cast<std::size_t>(budget / (dim * dim));
  fillers.cx.resize(count);
  fillers.cy.resize(count);
  Rng rng(seed);
  const Rect& r = db.region;
  for (std::size_t k = 0; k < count; ++k) {
    fillers.cx[k] = rng.uniform(r.lx + dim * 0.5, r.hx - dim * 0.5);
    fillers.cy[k] = rng.uniform(r.ly + dim * 0.5, r.hy - dim * 0.5);
  }
  rc.log().info("makeFillers: %zu fillers of %.3g x %.3g (budget %.4g)",
                count, dim, dim, budget);
  return fillers;
}

}  // namespace ep
