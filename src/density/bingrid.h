// Uniform bin decomposition of the placement region (the B of Eq. 2).
//
// The grid resolution is a power of two per axis so the spectral solver can
// use the radix-2 FFT; following the paper the bin count tracks the object
// count (flat high-resolution grid, no coarsening).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/geometry.h"
#include "util/parallel.h"

namespace ep {

class BinGrid {
 public:
  BinGrid() = default;
  BinGrid(const Rect& region, std::size_t nx, std::size_t ny);

  /// Power-of-two resolution m with m*m >= numObjects, clamped to [32, 512].
  /// This is the *solver* grid (paper: flat high-resolution density grid).
  static std::size_t chooseResolution(std::size_t numObjects);

  /// Power-of-two resolution for the density-overflow metric, m*m >=
  /// numObjects/8, clamped to [16, 256]. Overflow bins must hold several
  /// objects: with one object per bin, a single cell straddling a bin
  /// boundary at rho_t < 1 overflows irreducibly and tau <= 10% becomes
  /// unreachable (the contest scripts use coarse bins for the same reason).
  static std::size_t chooseOverflowResolution(std::size_t numObjects);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t numBins() const { return nx_ * ny_; }
  [[nodiscard]] double dx() const { return dx_; }
  [[nodiscard]] double dy() const { return dy_; }
  [[nodiscard]] double binArea() const { return dx_ * dy_; }
  [[nodiscard]] const Rect& region() const { return region_; }

  /// Bin index containing coordinate x (clamped to the grid).
  [[nodiscard]] std::size_t binX(double x) const;
  [[nodiscard]] std::size_t binY(double y) const;

  [[nodiscard]] Rect binRect(std::size_t ix, std::size_t iy) const {
    return {region_.lx + static_cast<double>(ix) * dx_,
            region_.ly + static_cast<double>(iy) * dy_,
            region_.lx + static_cast<double>(ix + 1) * dx_,
            region_.ly + static_cast<double>(iy + 1) * dy_};
  }

  /// Accumulate `amount` (an area) spread over the rectangle `r` clipped to
  /// the region, distributed into `map` proportionally to overlap. `r` must
  /// have positive area. Used for exact-footprint stamping.
  void stamp(const Rect& r, double amount, std::span<double> map) const;

  /// stamp() restricted to bin rows [rowBegin, rowEnd): only the slice of
  /// `r`'s footprint falling in those rows is accumulated. Stamping every
  /// object against complementary row bands reproduces stamp() exactly.
  void stampRows(const Rect& r, double amount, std::span<double> map,
                 std::size_t rowBegin, std::size_t rowEnd) const;

  /// Deterministic parallel scatter of `n` rectangles into `map`.
  /// `objFn(i, &r, &amount)` yields object i's footprint; it is called
  /// concurrently, so it must be a pure function of i. The *output* is
  /// partitioned, in two passes over the pool:
  ///  1. element-wise over objects: clip each footprint once and record its
  ///     bin-row span [y0, y1] in `rowSpans[i]` (n entries of caller
  ///     scratch, two 16-bit rows packed per entry; see packRowSpan);
  ///  2. over contiguous bands of bin rows, one per thread: walk the objects
  ///     in index order, skip those whose span misses the band, and stamp
  ///     the slice of the rest that falls inside it (stampRows).
  /// Every bin thus accumulates contributions in object index order
  /// whatever the thread count — bit-identical to the serial
  /// `for (i) stamp(...)` loop. Only the row span is cached, 4 B per
  /// object: phase 2 re-derives the footprint of the objects it stamps.
  /// `pool == nullptr`, one thread, n < 64 or more than kMaxSpanRows rows
  /// runs serially and leaves `rowSpans` untouched.
  template <typename ObjFn>
  void stampAll(std::size_t n, ObjFn&& objFn, std::span<double> map,
                ThreadPool* pool, std::span<std::int32_t> rowSpans) const {
    if (pool == nullptr || pool->threads() == 1 || n < 64 ||
        ny_ > kMaxSpanRows) {
      for (std::size_t i = 0; i < n; ++i) {
        Rect r;
        double amount = 0.0;
        objFn(i, &r, &amount);
        stamp(r, amount, map);
      }
      return;
    }
    assert(rowSpans.size() >= n);
    std::int32_t* spans = rowSpans.data();
    pool->parallelFor(n, [&](std::size_t, std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        Rect r;
        double amount = 0.0;
        objFn(i, &r, &amount);
        spans[i] = packRowSpan(r);
      }
    });
    pool->parallelFor(
        ny_,
        [&](std::size_t, std::size_t rowBegin, std::size_t rowEnd) {
          for (std::size_t i = 0; i < n; ++i) {
            const auto s = static_cast<std::uint32_t>(spans[i]);
            if ((s >> 16) < rowBegin || (s & 0xFFFFu) >= rowEnd) continue;
            Rect r;
            double amount = 0.0;
            objFn(i, &r, &amount);
            stampRows(r, amount, map, rowBegin, rowEnd);
          }
        },
        1);
  }

 private:
  /// Row counts up to this fit the 16-bit halves of a packed row span.
  static constexpr std::size_t kMaxSpanRows = 0xFFFF;

  /// The bin rows [y0, y1] that stampRows touches for `r`, packed as
  /// y0 | y1 << 16, from the same clip and binY arithmetic as stampRows —
  /// so skipping a band the span misses never drops a contribution. An
  /// empty clip packs y0 = 0xFFFF, y1 = 0, which misses every band.
  [[nodiscard]] std::int32_t packRowSpan(const Rect& r) const;

  Rect region_;
  std::size_t nx_ = 0, ny_ = 0;
  double dx_ = 0.0, dy_ = 0.0;
};

}  // namespace ep
