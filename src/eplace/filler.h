// Filler cells (Sec. III): unconnected charges that populate whitespace so
// the electrostatic equilibrium spreads real cells at the target density
// instead of letting them drift into all free space. Fillers take part in
// density (they are charges) but carry no nets and are excluded from the
// overflow metric.
#pragma once

#include <cstdint>
#include <vector>

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct FillerSet {
  std::vector<double> cx, cy;  // centers
  double w = 0.0, h = 0.0;     // uniform filler dims

  [[nodiscard]] std::size_t size() const { return cx.size(); }
  [[nodiscard]] double totalArea() const {
    return static_cast<double>(size()) * w * h;
  }
};

/// Creates fillers for the instance: total filler area equals
/// rho_t * freeArea - movableArea (clamped at zero); each filler is a square
/// sized from the average area of the middle 80% of movable cells; positions
/// are uniform random inside the region (deterministic per seed).
FillerSet makeFillers(const PlacementDB& db, std::uint64_t seed,
                      RuntimeContext& ctx);

}  // namespace ep
