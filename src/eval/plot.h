// Layout snapshot rendering to PPM (P6) images, used by the figure benches
// (Fig. 3 mGP progression, Fig. 5 macro legalization, Fig. 6 cGP). Colors
// follow the paper: standard cells red, macros black outlines, fillers blue,
// fixed objects gray.
#pragma once

#include <span>
#include <string>

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

/// Renders the DB layout, 512 pixels wide (the height follows the region's
/// aspect ratio). `fillers` optionally adds filler rectangles
/// (center/size quadruples are taken from the spans, all sized like the
/// ChargeView the placer maintains). Returns false when the file cannot be
/// written (also logged as a warning through `ctx`'s sink).
bool plotLayout(const PlacementDB& db, const std::string& path,
                RuntimeContext& ctx, std::span<const double> fillerCx = {},
                std::span<const double> fillerCy = {},
                std::span<const double> fillerW = {},
                std::span<const double> fillerH = {});

/// Renders a scalar bin map (density rho, potential psi, field magnitude)
/// as a blue->white->red heatmap, one pixel block per bin, normalized to
/// the map's own [min, max]. Row-major nx*ny, index iy*nx+ix. A bad shape
/// returns false and is logged through `ctx`'s sink.
bool plotScalarMap(std::span<const double> map, std::size_t nx,
                   std::size_t ny, const std::string& path,
                   RuntimeContext& ctx, int scale = 4);

}  // namespace ep
