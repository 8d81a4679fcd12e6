#include "density/electro.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ep {

namespace {
constexpr double kSqrt2 = 1.4142135623730951;
}

std::span<double> ElectroDensity::buf(ScratchArena* arena, const char* key,
                                      std::size_t n) {
  std::span<double> s = arena != nullptr
                            ? arena->doubles(key, n)
                            : std::span<double>(own_.emplace_back(n));
  std::fill(s.begin(), s.end(), 0.0);
  return s;
}

ElectroDensity::ElectroDensity(const Rect& region, std::size_t nx,
                               std::size_t ny, double targetDensity,
                               ScratchArena* arena, FaultInjector* faults)
    : grid_(region, nx, ny),
      ovfGrid_(region, std::max<std::size_t>(16, nx / 4),
               std::max<std::size_t>(16, ny / 4)),
      rhoT_(targetDensity),
      solver_(nx, ny, grid_.dx(), grid_.dy(), arena, faults),
      arena_(arena) {
  fixedSolver_ = buf(arena, "den.fixedSolver", nx * ny);
  fixedExact_ = buf(arena, "den.fixedExact", ovfGrid_.numBins());
  staticCharge_ = buf(arena, "den.staticCharge", nx * ny);
  movCharge_ = buf(arena, "den.movCharge", nx * ny);
  rho_ = buf(arena, "den.rho", nx * ny);
  ovfScratch_ = buf(arena, "den.ovfScratch", ovfGrid_.numBins());
}

std::span<std::int32_t> ElectroDensity::rowSpans(std::size_t n) const {
  if (arena_ != nullptr) return arena_->ints("den.rowSpans", n);
  if (ownRowSpans_.size() < n) ownRowSpans_.resize(n);
  return {ownRowSpans_.data(), n};
}

void ElectroDensity::stampFixed(const PlacementDB& db) {
  const PlacementView& pv = db.view();
  assert(pv.built());
  std::fill(fixedExact_.begin(), fixedExact_.end(), 0.0);
  std::vector<double> fixedFine(grid_.numBins(), 0.0);
  const auto lx = pv.lx(), ly = pv.ly(), w = pv.w(), h = pv.h();
  const auto fixedMask = pv.fixedMask();
  for (std::size_t i = 0; i < pv.numObjects(); ++i) {
    if (fixedMask[i] == 0) continue;
    const Rect r{lx[i], ly[i], lx[i] + w[i], ly[i] + h[i]};
    const Rect clipped = r.intersect(grid_.region());
    if (clipped.empty()) continue;
    grid_.stamp(r, r.area(), fixedFine);
    ovfGrid_.stamp(r, r.area(), fixedExact_);
  }
  // Solver map: occupancy clamped at 1, scaled by rho_t (see header).
  const double binArea = grid_.binArea();
  for (std::size_t b = 0; b < fixedFine.size(); ++b) {
    fixedSolver_[b] = rhoT_ * std::min(1.0, fixedFine[b] / binArea);
  }
}

void ElectroDensity::stampStaticCharges(const ChargeView& charges) {
  for (std::size_t i = 0; i < charges.size(); ++i) {
    const Footprint f =
        smoothed(charges.cx[i], charges.cy[i], charges.w[i], charges.h[i]);
    grid_.stamp(f.r, f.r.area() * f.scale, staticCharge_);
  }
}

void ElectroDensity::clearStatic() {
  std::fill(staticCharge_.begin(), staticCharge_.end(), 0.0);
}

ElectroDensity::Footprint ElectroDensity::smoothed(double cx, double cy,
                                                   double w, double h) const {
  const double minW = kSqrt2 * grid_.dx();
  const double minH = kSqrt2 * grid_.dy();
  const double sw = std::max(w, minW);
  const double sh = std::max(h, minH);
  const double scale = (w * h) / (sw * sh);
  return {Rect{cx - sw * 0.5, cy - sh * 0.5, cx + sw * 0.5, cy + sh * 0.5},
          scale};
}

void ElectroDensity::update(const ChargeView& charges, ThreadPool* pool) {
  std::fill(movCharge_.begin(), movCharge_.end(), 0.0);
  // stampAll spreads each (area * scale) == q_i over its smoothed rect,
  // bin rows partitioned across threads (deterministic scatter).
  grid_.stampAll(
      charges.size(),
      [&](std::size_t i, Rect* r, double* amount) {
        const Footprint f =
            smoothed(charges.cx[i], charges.cy[i], charges.w[i], charges.h[i]);
        *r = f.r;
        *amount = f.r.area() * f.scale;
      },
      movCharge_, pool, rowSpans(charges.size()));
  const double invBinArea = 1.0 / grid_.binArea();
  auto mix = [&](std::size_t, std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      rho_[b] =
          fixedSolver_[b] + (movCharge_[b] + staticCharge_[b]) * invBinArea;
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(rho_.size(), mix);
  } else {
    mix(0, 0, rho_.size());
  }
  solver_.solve(rho_, pool);
  energyStale_ = true;
}

double ElectroDensity::energy(ThreadPool* pool) {
  if (!energyStale_) return energy_;
  // N(v) = sum_i q_i psi_i evaluated bin-wise from the stamped charge.
  double e = 0.0;
  const auto psi = solver_.psi(pool);
  const double inv = 1.0 / grid_.binArea();
  for (std::size_t b = 0; b < rho_.size(); ++b) {
    e += movCharge_[b] * inv * psi[b];
  }
  energy_ = e;
  energyStale_ = false;
  return energy_;
}

void ElectroDensity::gradient(const ChargeView& charges, std::span<double> gx,
                              std::span<double> gy, ThreadPool* pool) const {
  assert(gx.size() == charges.size() && gy.size() == charges.size());
  const auto ex = solver_.fieldX();
  const auto ey = solver_.fieldY();
  const Rect& region = grid_.region();
  const std::size_t nx = grid_.nx();
  const double dx = grid_.dx(), dy = grid_.dy();
  // Pure gather: charge i reads the field under its own footprint and
  // writes gx[i]/gy[i] only, so any partition gives identical results.
  // Like stampRows, the x-bins split first/middle/last: interior bins are
  // fully covered (ox == dx), so their field contribution is a plain
  // vectorizable sum scaled once per row.
  auto work = [&](std::size_t, std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const Footprint f =
          smoothed(charges.cx[i], charges.cy[i], charges.w[i], charges.h[i]);
      const Rect c = f.r.intersect(region);
      double fx = 0.0, fy = 0.0;
      if (!c.empty()) {
        const std::size_t x0 = grid_.binX(c.lx);
        const std::size_t x1 = grid_.binX(c.hx - 1e-12 * dx);
        const std::size_t y0 = grid_.binY(c.ly);
        const std::size_t y1 = grid_.binY(c.hy - 1e-12 * dy);
        const double bxFirst = region.lx + static_cast<double>(x0) * dx;
        const double bxLast = region.lx + static_cast<double>(x1) * dx;
        const double oxF = intervalOverlap(c.lx, c.hx, bxFirst, bxFirst + dx);
        const double oxL = intervalOverlap(c.lx, c.hx, bxLast, bxLast + dx);
        for (std::size_t iy = y0; iy <= y1; ++iy) {
          const double by0 = region.ly + static_cast<double>(iy) * dy;
          const double oy = intervalOverlap(c.ly, c.hy, by0, by0 + dy);
          const double soy = f.scale * oy;
          const double* exRow = ex.data() + iy * nx;
          const double* eyRow = ey.data() + iy * nx;
          if (x0 == x1) {
            const double charge = soy * oxF;
            fx += charge * exRow[x0];
            fy += charge * eyRow[x0];
            continue;
          }
          double sx = 0.0, sy = 0.0;
          for (std::size_t ix = x0 + 1; ix < x1; ++ix) {
            sx += exRow[ix];
            sy += eyRow[ix];
          }
          fx += soy * (oxF * exRow[x0] + dx * sx + oxL * exRow[x1]);
          fy += soy * (oxF * eyRow[x0] + dx * sy + oxL * eyRow[x1]);
        }
      }
      gx[i] = fx;
      gy[i] = fy;
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(charges.size(), work, 256);
  } else {
    work(0, 0, charges.size());
  }
}

double ElectroDensity::overflow(const ChargeView& movablesOnly,
                                ThreadPool* pool) const {
  // Per-iteration call on the Nesterov hot path: reuse the member scratch
  // instead of allocating a fresh per-bin vector every time.
  const std::span<double> area = ovfScratch_;
  std::fill(area.begin(), area.end(), 0.0);
  ovfGrid_.stampAll(
      movablesOnly.size(),
      [&](std::size_t i, Rect* r, double* amount) {
        const double w = movablesOnly.w[i], h = movablesOnly.h[i];
        *r = Rect{movablesOnly.cx[i] - w * 0.5, movablesOnly.cy[i] - h * 0.5,
                  movablesOnly.cx[i] + w * 0.5, movablesOnly.cy[i] + h * 0.5};
        *amount = r->area();
      },
      area, pool, rowSpans(movablesOnly.size()));
  double totalMovable = 0.0;
  for (std::size_t i = 0; i < movablesOnly.size(); ++i) {
    totalMovable += movablesOnly.w[i] * movablesOnly.h[i];
  }
  if (totalMovable <= 0.0) return 0.0;
  const double binArea = ovfGrid_.binArea();
  double over = 0.0;
  for (std::size_t b = 0; b < area.size(); ++b) {
    const double capacity =
        rhoT_ * std::max(0.0, binArea - fixedExact_[b]);
    over += std::max(0.0, area[b] - capacity);
  }
  return over / totalMovable;
}

}  // namespace ep
