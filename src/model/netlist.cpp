#include "model/netlist.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <tuple>

#include "util/checked_math.h"

namespace ep {

void PlacementDB::finalize() {
  movable_.clear();
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!objects[i].fixed) movable_.push_back(static_cast<std::int32_t>(i));
  }
  // The object->nets CSR (one entry per incident pin — a net touching the
  // same object through several pins counts once per pin for degree
  // purposes, matching |E_i| closely enough) now lives in the view along
  // with the rest of the SoA arrays.
  view_.build(*this);
  finalized_ = true;
}

std::size_t PlacementDB::numMovableMacros() const {
  std::size_t k = 0;
  for (auto i : movable_) {
    if (objects[static_cast<std::size_t>(i)].kind == ObjKind::kMacro) ++k;
  }
  return k;
}

double PlacementDB::totalMovableArea() const {
  double a = 0.0;
  for (auto i : movable_) a += objects[static_cast<std::size_t>(i)].area();
  return a;
}

double PlacementDB::fixedAreaInRegion() const {
  double a = 0.0;
  for (const auto& o : objects) {
    if (o.fixed) a += o.rect().overlapArea(region);
  }
  return a;
}

double PlacementDB::freeArea() const {
  return region.area() - fixedAreaInRegion();
}

Status PlacementDB::validate() const {
  auto bad = [](const std::string& msg) { return Status::invalidInput(msg); };
  std::ostringstream err;
  if (region.empty()) return bad("region is empty");
  if (!finalized_) return bad("finalize() has not been called");
  // 32-bit index-space gate (util/checked_math.h): the SoA CSRs index
  // objects/nets/pins with std::int32_t. Oversized instances are rejected
  // here (and by the capacity planner before assembly) with a typed status
  // instead of wrapping an index.
  if (!fitsIndex32(objects.size())) {
    return bad("instance has " + std::to_string(objects.size()) +
               " objects, over the 32-bit index space");
  }
  if (!fitsIndex32(nets.size())) {
    return bad("instance has " + std::to_string(nets.size()) +
               " nets, over the 32-bit index space");
  }
  {
    std::size_t totalPins = 0;
    for (const auto& n : nets) totalPins += n.pins.size();
    if (!fitsIndex32(totalPins)) {
      return bad("instance has " + std::to_string(totalPins) +
                 " pins, over the 32-bit index space");
    }
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& o = objects[i];
    if (!std::isfinite(o.w) || !std::isfinite(o.h) || o.w < 0.0 || o.h < 0.0) {
      err << "object " << o.name << " has invalid dims " << o.w << " x " << o.h;
      return bad(err.str());
    }
    // Fixed point pads (zero area) are legitimate; zero-area movables are
    // not — they carry no density charge and cannot be legalized.
    if (!o.fixed && !(o.w > 0.0 && o.h > 0.0)) {
      err << "movable object " << o.name << " has zero area";
      return bad(err.str());
    }
    if (!std::isfinite(o.lx) || !std::isfinite(o.ly)) {
      err << "object " << o.name << " has non-finite position";
      return bad(err.str());
    }
  }
  for (std::size_t n = 0; n < nets.size(); ++n) {
    if (nets[n].pins.empty()) {
      err << "net " << nets[n].name << " has no pins";
      return bad(err.str());
    }
    for (const auto& pin : nets[n].pins) {
      if (pin.obj < 0 ||
          static_cast<std::size_t>(pin.obj) >= objects.size()) {
        err << "net " << nets[n].name << " references invalid object "
            << pin.obj;
        return bad(err.str());
      }
      if (!std::isfinite(pin.ox) || !std::isfinite(pin.oy)) {
        err << "net " << nets[n].name << " has a non-finite pin offset";
        return bad(err.str());
      }
    }
    if (nets[n].weight <= 0.0 || !std::isfinite(nets[n].weight)) {
      err << "net " << nets[n].name << " has non-positive weight";
      return bad(err.str());
    }
  }
  for (const auto& r : rows) {
    if (r.height <= 0.0 || r.siteWidth <= 0.0 || r.numSites <= 0) {
      return bad("row with non-positive geometry");
    }
  }
  if (targetDensity <= 0.0 || targetDensity > 1.0 ||
      !std::isfinite(targetDensity)) {
    return bad("target density out of (0, 1]");
  }
  return {};
}

Status PlacementDB::sanitize(int* repaired) {
  int fixes = 0;
  if (region.empty()) return Status::invalidInput("region is empty");
  const double diag = std::hypot(region.width(), region.height());
  const Point mid{(region.lx + region.hx) * 0.5, (region.ly + region.hy) * 0.5};
  for (auto& o : objects) {
    if (!std::isfinite(o.w) || !std::isfinite(o.h) || o.w < 0.0 || o.h < 0.0) {
      return Status::invalidInput("object " + o.name + " has invalid dims");
    }
    if (!o.fixed && !(o.w > 0.0 && o.h > 0.0)) {
      return Status::invalidInput("movable object " + o.name +
                                  " has zero area");
    }
    if (!o.fixed && (!std::isfinite(o.lx) || !std::isfinite(o.ly))) {
      o.setCenter(mid.x, mid.y);  // placement recomputes it anyway
      ++fixes;
      continue;
    }
    if (o.fixed && std::isfinite(o.lx) && std::isfinite(o.ly)) {
      // A pad more than one region diagonal away from the core is corrupt
      // input, not periphery IO: clamp its center onto the region.
      const Point c = o.center();
      const double dx =
          std::max({region.lx - c.x, c.x - region.hx, 0.0});
      const double dy =
          std::max({region.ly - c.y, c.y - region.hy, 0.0});
      if (std::hypot(dx, dy) > diag) {
        o.setCenter(std::clamp(c.x, region.lx, region.hx),
                    std::clamp(c.y, region.ly, region.hy));
        ++fixes;
      }
    } else if (o.fixed) {
      return Status::invalidInput("fixed object " + o.name +
                                  " has non-finite position");
    }
  }
  // Exactly-overlapping fixed pads (identical rects, a common artifact of
  // duplicated terminal rows in hand-edited Bookshelf) would be stamped
  // twice into the density map and double-counted in fixedAreaInRegion().
  // Keep the first of each group and shrink the duplicates to zero-area
  // points at the same center: nets still reference them and pin positions
  // are offsets from the (unchanged) center, but they no longer carry area.
  {
    std::map<std::tuple<double, double, double, double>, bool> seen;
    int duplicates = 0;
    for (auto& o : objects) {
      if (!o.fixed || o.area() <= 0.0) continue;
      auto [it, inserted] = seen.try_emplace({o.lx, o.ly, o.w, o.h}, true);
      if (inserted) continue;
      const Point c = o.center();
      o.w = 0.0;
      o.h = 0.0;
      o.lx = c.x;
      o.ly = c.y;
      ++duplicates;
    }
    fixes += duplicates;
  }
  // sanitize() mutates geometry (clamped pads, zero-area duplicates); if a
  // view was already built it would be stale, so rebuild. Deliberately not
  // setting finalized_: an unfinalized DB stays unfinalized for validate().
  if (finalized_ && fixes > 0) view_.build(*this);
  if (repaired != nullptr) *repaired = fixes;
  return {};
}

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    // Hash the bit pattern, normalizing -0.0 so it equals +0.0.
    if (v == 0.0) v = 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t netlistFingerprint(const PlacementDB& db) {
  Fnv1a f;
  f.str(db.name);
  f.f64(db.region.lx);
  f.f64(db.region.ly);
  f.f64(db.region.hx);
  f.f64(db.region.hy);
  f.f64(db.targetDensity);
  f.u64(db.objects.size());
  for (const Object& o : db.objects) {
    f.u64(static_cast<std::uint64_t>(o.kind));
    f.u64(o.fixed ? 1 : 0);
    f.f64(o.w);
    f.f64(o.h);
    if (o.fixed) {
      // Fixed geometry is part of the instance; movable positions are the
      // solver's output and must not perturb the fingerprint.
      f.f64(o.lx);
      f.f64(o.ly);
    }
  }
  f.u64(db.nets.size());
  for (const Net& n : db.nets) {
    f.f64(n.weight);
    f.u64(n.pins.size());
    for (const PinRef& p : n.pins) {
      f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.obj)));
      f.f64(p.ox);
      f.f64(p.oy);
    }
  }
  f.u64(db.rows.size());
  for (const Row& r : db.rows) {
    f.f64(r.lx);
    f.f64(r.ly);
    f.f64(r.height);
    f.f64(r.siteWidth);
    f.u64(static_cast<std::uint64_t>(r.numSites));
  }
  return f.h;
}

}  // namespace ep
