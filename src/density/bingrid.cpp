#include "density/bingrid.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/checked_math.h"

namespace ep {

BinGrid::BinGrid(const Rect& region, std::size_t nx, std::size_t ny)
    : region_(region), nx_(nx), ny_(ny) {
  assert(!region.empty());
  assert(nx > 0 && ny > 0);
  // numBins() and the map indexing (iy * nx + ix) are size_t throughout,
  // but a caller-supplied resolution must not wrap the bin count itself
  // (32-bit overflow audit, util/checked_math.h).
  std::size_t bins = 0;
  if (!checkedMulSize(nx, ny, &bins) || !fitsIndex32(bins)) {
    throw std::length_error("BinGrid: bin count overflows the index space");
  }
  dx_ = region.width() / static_cast<double>(nx);
  dy_ = region.height() / static_cast<double>(ny);
}

std::size_t BinGrid::chooseResolution(std::size_t numObjects) {
  std::size_t m = 32;
  while (m < 512 && m * m < numObjects) m <<= 1;
  return m;
}

std::size_t BinGrid::chooseOverflowResolution(std::size_t numObjects) {
  std::size_t m = 16;
  while (m < 256 && m * m < numObjects / 8) m <<= 1;
  return m;
}

std::size_t BinGrid::binX(double x) const {
  const double t = (x - region_.lx) / dx_;
  const auto i = static_cast<std::ptrdiff_t>(t);
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(nx_) - 1));
}

std::size_t BinGrid::binY(double y) const {
  const double t = (y - region_.ly) / dy_;
  const auto i = static_cast<std::ptrdiff_t>(t);
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(ny_) - 1));
}

std::int32_t BinGrid::packRowSpan(const Rect& r) const {
  const Rect c = r.intersect(region_);
  std::uint32_t y0 = 0xFFFF, y1 = 0;
  if (!c.empty()) {
    y0 = static_cast<std::uint32_t>(binY(c.ly));
    y1 = static_cast<std::uint32_t>(binY(c.hy - 1e-12 * dy_));
  }
  return static_cast<std::int32_t>(y0 | y1 << 16);
}

void BinGrid::stamp(const Rect& r, double amount, std::span<double> map) const {
  stampRows(r, amount, map, 0, ny_);
}

void BinGrid::stampRows(const Rect& r, double amount, std::span<double> map,
                        std::size_t rowBegin, std::size_t rowEnd) const {
  const Rect c = r.intersect(region_);
  if (c.empty()) return;
  const double scale = amount / r.area();
  const std::size_t x0 = binX(c.lx), x1 = binX(c.hx - 1e-12 * dx_);
  std::size_t y0 = binY(c.ly), y1 = binY(c.hy - 1e-12 * dy_);
  // Clip the footprint's row span to this band; the per-bin arithmetic is
  // unchanged, so banded stamping composes to exactly stamp().
  y0 = std::max(y0, rowBegin);
  if (y1 >= rowEnd) {
    if (rowEnd == 0) return;
    y1 = rowEnd - 1;
  }
  if (y0 > y1) return;
  // First/middle/last x split: only the boundary bins need the overlap
  // clamp — every interior bin is fully covered, so its contribution is a
  // constant (scale * oy * dx_) and the inner loop is a vectorizable
  // constant-add sweep. The per-bin expression depends only on (r, bin),
  // never on the row band, so banded stamping still composes to stamp().
  const double bxFirst = region_.lx + static_cast<double>(x0) * dx_;
  const double bxLast = region_.lx + static_cast<double>(x1) * dx_;
  const double oxFirst = intervalOverlap(c.lx, c.hx, bxFirst, bxFirst + dx_);
  const double oxLast = intervalOverlap(c.lx, c.hx, bxLast, bxLast + dx_);
  for (std::size_t iy = y0; iy <= y1; ++iy) {
    const double by0 = region_.ly + static_cast<double>(iy) * dy_;
    const double oy = intervalOverlap(c.ly, c.hy, by0, by0 + dy_);
    const double soy = scale * oy;
    double* row = map.data() + iy * nx_;
    if (x0 == x1) {
      row[x0] += soy * oxFirst;
      continue;
    }
    row[x0] += soy * oxFirst;
    const double mid = soy * dx_;
    for (std::size_t ix = x0 + 1; ix < x1; ++ix) row[ix] += mid;
    row[x1] += soy * oxLast;
  }
}

}  // namespace ep
