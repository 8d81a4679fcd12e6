// Placement instance model: objects (standard cells, macros, IO pads),
// hyperedge nets with pin offsets, placement rows and the core region.
//
// This is the G = (V, E, R) of Section II of the paper. The model follows
// Bookshelf (ISPD contest) conventions: pin offsets are measured from the
// object center; "terminals" are fixed objects. Fillers are *not* part of
// the instance — they are an optimizer-internal device and live in
// src/eplace.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/placement_view.h"
#include "util/geometry.h"
#include "util/status.h"

namespace ep {

enum class ObjKind : std::uint8_t { kStdCell, kMacro, kIo };

/// One placeable (or fixed) rectangle. Position is the lower-left corner.
struct Object {
  std::string name;
  ObjKind kind = ObjKind::kStdCell;
  double w = 0.0;
  double h = 0.0;
  double lx = 0.0;
  double ly = 0.0;
  bool fixed = false;

  [[nodiscard]] double area() const { return w * h; }
  [[nodiscard]] Rect rect() const { return {lx, ly, lx + w, ly + h}; }
  [[nodiscard]] Point center() const { return {lx + w * 0.5, ly + h * 0.5}; }
  void setCenter(double cx, double cy) {
    lx = cx - w * 0.5;
    ly = cy - h * 0.5;
  }
};

/// Pin direction (Bookshelf I/O/B). Drives the timing graph; placement
/// itself is direction-agnostic.
enum class PinDir : std::uint8_t { kUnknown, kInput, kOutput };

/// A pin: an object index plus an offset of the pin from the object center.
struct PinRef {
  std::int32_t obj = -1;
  double ox = 0.0;
  double oy = 0.0;
  PinDir dir = PinDir::kUnknown;
};

/// A hyperedge over pins with an optional weight (Bookshelf .wts).
struct Net {
  std::string name;
  std::vector<PinRef> pins;
  double weight = 1.0;

  [[nodiscard]] std::size_t degree() const { return pins.size(); }
};

/// One placement row (Bookshelf .scl). All rows share a height in the
/// designs we model; sites are uniform.
struct Row {
  double lx = 0.0;
  double ly = 0.0;
  double height = 0.0;
  double siteWidth = 1.0;
  std::int32_t numSites = 0;

  [[nodiscard]] double hx() const {
    return lx + siteWidth * static_cast<double>(numSites);
  }
};

/// The full placement instance plus derived connectivity.
class PlacementDB {
 public:
  std::string name;
  Rect region;
  std::vector<Object> objects;
  std::vector<Net> nets;
  std::vector<Row> rows;
  /// Per-bin density upper bound rho_t (1.0 for ISPD 2005, lower for 2006).
  double targetDensity = 1.0;

  /// (Re)build derived structures: movable index list and the flat SoA
  /// PlacementView (geometry arrays, pin/net CSRs, movable remap). Must be
  /// called after the instance is assembled or edited structurally (moving
  /// objects is fine without a rebuild).
  void finalize();

  /// The flat SoA core every kernel layer reads (valid after finalize()).
  /// Mutable access exists so stage boundaries can sync positions.
  [[nodiscard]] const PlacementView& view() const { return view_; }
  [[nodiscard]] PlacementView& view() { return view_; }

  [[nodiscard]] const std::vector<std::int32_t>& movable() const {
    return movable_;
  }
  [[nodiscard]] std::size_t numMovable() const { return movable_.size(); }
  [[nodiscard]] std::size_t numMovableMacros() const;

  /// Nets incident to object i (CSR range into the view — no allocation).
  /// Valid until the next finalize().
  [[nodiscard]] std::span<const std::int32_t> netsOf(std::int32_t obj) const {
    return view_.netsOf(obj);
  }
  /// Vertex degree |E_i| — the wirelength preconditioner term of Eq. (12).
  [[nodiscard]] std::int32_t degreeOf(std::int32_t obj) const {
    return view_.degreeOf(obj);
  }

  [[nodiscard]] double totalMovableArea() const;
  /// Area of fixed objects clipped to the core region.
  [[nodiscard]] double fixedAreaInRegion() const;
  /// Whitespace available to movable objects: region minus clipped fixed.
  [[nodiscard]] double freeArea() const;

  /// Pin position for a PinRef given current object placement.
  [[nodiscard]] Point pinPos(const PinRef& p) const {
    const Point c = objects[static_cast<std::size_t>(p.obj)].center();
    return {c.x + p.ox, c.y + p.oy};
  }

  /// Validate structural invariants (pin indices in range, positive movable
  /// dims, finite geometry, non-empty region, finalized connectivity).
  /// Returns OK or an InvalidInput status describing the first violation.
  /// Fixed objects may have zero dims (ISPD terminal_NI pads are points);
  /// movable objects must have positive area — the density model divides
  /// by it.
  [[nodiscard]] Status validate() const;

  /// Repair what is safely repairable before placement starts, or reject
  /// with InvalidInput what is not:
  ///  * fixed pads stranded absurdly far outside the region (farther than
  ///    one region diagonal) are clamped onto the region boundary — the
  ///    usual signature of corrupt coordinates; near-boundary IO pads are
  ///    left alone;
  ///  * movable objects with non-finite positions are recentered (global
  ///    placement overwrites them anyway);
  ///  * exactly-overlapping fixed pads (identical rects) are de-duplicated —
  ///    duplicates become zero-area points at the same center so the density
  ///    map counts each footprint once;
  ///  * zero/negative-area movable objects are rejected.
  /// Returns the number of clamped, recentered and de-duplicated objects via
  /// `repaired` when non-null. Call before validate()+mGP;
  /// runSupervisedFlow() does, and logs that count.
  Status sanitize(int* repaired = nullptr);

 private:
  std::vector<std::int32_t> movable_;
  PlacementView view_;
  bool finalized_ = false;
};

/// Stable 64-bit FNV-1a fingerprint of the placement *input*: design name,
/// region, target density, object dims/kinds/fixed flags (fixed positions
/// included, movable positions excluded — they are outputs), and full net
/// connectivity with pin offsets and weights. Two runs with equal
/// fingerprints solved the same instance; run records carry it so the
/// regression gate refuses to compare records from different inputs.
[[nodiscard]] std::uint64_t netlistFingerprint(const PlacementDB& db);

}  // namespace ep
