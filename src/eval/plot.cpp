#include "eval/plot.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/context.h"

namespace ep {

namespace {

struct Rgb {
  unsigned char r, g, b;
};

constexpr Rgb kWhite{255, 255, 255};
constexpr Rgb kRed{220, 40, 40};
constexpr Rgb kBlue{60, 80, 220};
constexpr Rgb kBlack{20, 20, 20};
constexpr Rgb kGray{170, 170, 170};

/// plotLayout image width in pixels; the height follows the aspect ratio.
constexpr int kLayoutWidth = 512;

class Canvas {
 public:
  Canvas(int w, int h, const Rect& world)
      : w_(w), h_(h), world_(world), px_(static_cast<std::size_t>(w) * h, kWhite) {}

  void fillRect(const Rect& r, Rgb c) {
    int x0, y0, x1, y1;
    toPixels(r, x0, y0, x1, y1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) set(x, y, c);
    }
  }

  void outlineRect(const Rect& r, Rgb c) {
    int x0, y0, x1, y1;
    toPixels(r, x0, y0, x1, y1);
    for (int x = x0; x <= x1; ++x) {
      set(x, y0, c);
      set(x, y1, c);
    }
    for (int y = y0; y <= y1; ++y) {
      set(x0, y, c);
      set(x1, y, c);
    }
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    std::fprintf(f, "P6\n%d %d\n255\n", w_, h_);
    std::fwrite(px_.data(), sizeof(Rgb), px_.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  void toPixels(const Rect& r, int& x0, int& y0, int& x1, int& y1) const {
    const double sx = static_cast<double>(w_ - 1) / world_.width();
    const double sy = static_cast<double>(h_ - 1) / world_.height();
    x0 = std::clamp(static_cast<int>((r.lx - world_.lx) * sx), 0, w_ - 1);
    x1 = std::clamp(static_cast<int>((r.hx - world_.lx) * sx), 0, w_ - 1);
    // y axis flipped: world bottom -> image bottom row.
    y1 = std::clamp(h_ - 1 - static_cast<int>((r.ly - world_.ly) * sy), 0,
                    h_ - 1);
    y0 = std::clamp(h_ - 1 - static_cast<int>((r.hy - world_.ly) * sy), 0,
                    h_ - 1);
  }

  void set(int x, int y, Rgb c) {
    if (x < 0 || y < 0 || x >= w_ || y >= h_) return;
    px_[static_cast<std::size_t>(y) * w_ + x] = c;
  }

  int w_, h_;
  Rect world_;
  std::vector<Rgb> px_;
};

}  // namespace

bool plotScalarMap(std::span<const double> map, std::size_t nx,
                   std::size_t ny, const std::string& path,
                   RuntimeContext& ctx, int scale) {
  if (map.size() != nx * ny || nx == 0 || ny == 0) {
    ctx.log().warn("plotScalarMap: bad map shape for %s (%zu values, %zux%zu)",
                  path.c_str(), map.size(), nx, ny);
    return false;
  }
  double lo = map[0], hi = map[0];
  for (double v : map) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo > 0.0 ? hi - lo : 1.0;
  const int w = static_cast<int>(nx) * scale;
  const int h = static_cast<int>(ny) * scale;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    ctx.log().warn("plotScalarMap: cannot open %s for writing", path.c_str());
    return false;
  }
  std::fprintf(f, "P6\n%d %d\n255\n", w, h);
  std::vector<Rgb> row(static_cast<std::size_t>(w));
  for (int py = h - 1; py >= 0; --py) {  // flip so +y is up
    const std::size_t iy = static_cast<std::size_t>(py) / scale;
    for (int px = 0; px < w; ++px) {
      const std::size_t ix = static_cast<std::size_t>(px) / scale;
      const double t = (map[iy * nx + ix] - lo) / span;  // 0..1
      // Diverging blue -> white -> red.
      Rgb c;
      if (t < 0.5) {
        const double u = t * 2.0;
        c = {static_cast<unsigned char>(60 + 195 * u),
             static_cast<unsigned char>(80 + 175 * u),
             static_cast<unsigned char>(220 + 35 * u)};
      } else {
        const double u = (t - 0.5) * 2.0;
        c = {static_cast<unsigned char>(255),
             static_cast<unsigned char>(255 - 215 * u),
             static_cast<unsigned char>(255 - 215 * u)};
      }
      row[static_cast<std::size_t>(px)] = c;
    }
    std::fwrite(row.data(), sizeof(Rgb), row.size(), f);
  }
  std::fclose(f);
  return true;
}

bool plotLayout(const PlacementDB& db, const std::string& path,
                RuntimeContext& ctx, std::span<const double> fillerCx,
                std::span<const double> fillerCy,
                std::span<const double> fillerW,
                std::span<const double> fillerH) {
  const double aspect = db.region.height() / db.region.width();
  const int h = std::max(16, static_cast<int>(kLayoutWidth * aspect));
  Canvas canvas(kLayoutWidth, h, db.region);

  for (const auto& o : db.objects) {
    if (o.fixed) canvas.fillRect(o.rect(), kGray);
  }
  for (std::size_t i = 0; i < fillerCx.size(); ++i) {
    const Rect r{fillerCx[i] - fillerW[i] * 0.5, fillerCy[i] - fillerH[i] * 0.5,
                 fillerCx[i] + fillerW[i] * 0.5,
                 fillerCy[i] + fillerH[i] * 0.5};
    canvas.fillRect(r, kBlue);
  }
  for (const auto& o : db.objects) {
    if (o.fixed) continue;
    if (o.kind == ObjKind::kStdCell) canvas.fillRect(o.rect(), kRed);
  }
  for (const auto& o : db.objects) {
    if (!o.fixed && o.kind == ObjKind::kMacro) {
      canvas.outlineRect(o.rect(), kBlack);
    }
  }
  canvas.outlineRect(db.region, kBlack);
  if (!canvas.write(path)) {
    ctx.log().warn("plotLayout: cannot write %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace ep
