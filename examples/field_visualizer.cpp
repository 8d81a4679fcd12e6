// Electrostatics visualizer — renders the eDensity quantities of Sec. IV
// for a placement state: charge density rho(x,y), potential psi(x,y) from
// the Neumann Poisson solve, and field magnitude |xi(x,y)|. Shows why the
// analogy works: potential peaks over dense regions and the field pushes
// charges down the potential slope toward whitespace.
//
// Writes field_rho.ppm / field_psi.ppm / field_mag.ppm for the mIP state
// (everything piled at the center) of a small circuit.
#include <cmath>
#include <cstdio>
#include <vector>

#include "density/electro.h"
#include "eval/plot.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "util/context.h"

int main() {
  ep::RuntimeContext ctx;
  ep::GenSpec spec;
  spec.name = "fieldviz";
  spec.numCells = 1200;
  spec.numFixedMacros = 4;
  spec.seed = 31;
  ep::PlacementDB db = ep::generateCircuit(spec);
  ep::quadraticInitialPlace(db, ctx);  // dense pile: strongest fields

  const std::size_t m = 128;
  ep::ElectroDensity ed(db.region, m, m, db.targetDensity);
  ed.stampFixed(db);

  std::vector<double> cx, cy, w, h;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    cx.push_back(o.center().x);
    cy.push_back(o.center().y);
    w.push_back(o.w);
    h.push_back(o.h);
  }
  ed.update(ep::ChargeView{cx, cy, w, h});

  std::vector<double> mag(m * m);
  const auto ex = ed.fieldX(), ey = ed.fieldY();
  for (std::size_t b = 0; b < mag.size(); ++b) {
    mag[b] = std::hypot(ex[b], ey[b]);
  }

  bool ok = ep::plotScalarMap(ed.density(), m, m, "field_rho.ppm", ctx) &&
            ep::plotScalarMap(ed.potential(), m, m, "field_psi.ppm", ctx) &&
            ep::plotScalarMap(mag, m, m, "field_mag.ppm", ctx);
  std::printf("density energy N(v) = %.6g\n", ed.energy());
  std::printf("wrote field_rho.ppm, field_psi.ppm, field_mag.ppm: %s\n",
              ok ? "ok" : "FAILED");

  // Numeric sanity: the potential's maximum sits near the charge pile
  // (the region center, where mIP stacked everything).
  const auto psi = ed.potential();
  std::size_t argmax = 0;
  for (std::size_t b = 0; b < psi.size(); ++b) {
    if (psi[b] > psi[argmax]) argmax = b;
  }
  const double px = (argmax % m + 0.5) / m, py = (argmax / m + 0.5) / m;
  std::printf("potential peak at (%.2f, %.2f) of the region (pile at "
              "~0.5, 0.5)\n", px, py);
  return ok ? 0 : 1;
}
