// The eDensity electrostatic density system (Sec. IV of the paper).
//
// Every object is a charge q_i equal to its area. The bin-level charge
// density rho feeds the spectral Poisson solver; the resulting potential
// psi and field xi = grad psi give
//
//   N(v)        = sum_i q_i psi_i          (total potential energy, Eq. 5)
//   dN/dx_i     = q_i xi_x(i)              (density gradient)
//
// Note on the paper's factor 2 (Eq. 8): lambda_0 is normalized from the
// gradient-norm ratio at the first iteration, so any constant multiplier on
// the density gradient is absorbed by lambda; we use q_i * xi like the
// public implementations of this method do.
//
// Implementation details that matter for fidelity:
//  * Local smoothing: an object narrower (shorter) than sqrt(2) bins is
//    inflated to sqrt(2)*dx (dy) with its charge density scaled down so the
//    total charge is conserved. This keeps rho resolvable on the grid.
//  * Fixed objects are stamped once, with occupancy clamped at 1 and scaled
//    by the target density rho_t, so that the electrostatic equilibrium is
//    "movables uniformly at rho_t in the free space" (zero field there).
//  * Density overflow tau (the mGP stop criterion and gamma driver) uses
//    *exact* footprints of movable objects only — fillers excluded — against
//    per-bin capacity rho_t * (binArea - fixedArea), matching the contest
//    evaluation semantics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "density/bingrid.h"
#include "fft/poisson.h"
#include "model/netlist.h"

namespace ep {

/// Structure-of-arrays view over the charges the optimizer moves
/// (movable cells and macros, optionally followed by fillers).
struct ChargeView {
  std::span<const double> cx;  ///< center x
  std::span<const double> cy;  ///< center y
  std::span<const double> w;   ///< width
  std::span<const double> h;   ///< height

  [[nodiscard]] std::size_t size() const { return cx.size(); }
};

class ElectroDensity {
 public:
  /// With `arena` non-null the per-bin maps and the scatter's row spans
  /// are borrowed from it under "den." keys, so a cGP-stage engine reuses
  /// the mGP stage's allocations. At most one ElectroDensity may lease
  /// those keys at a time (see placement_view.h); pass nullptr for owned
  /// storage.
  /// `faults` (optional, borrowed) reaches the spectral solver's
  /// "fft.forward" fault site.
  ElectroDensity(const Rect& region, std::size_t nx, std::size_t ny,
                 double targetDensity, ScratchArena* arena = nullptr,
                 FaultInjector* faults = nullptr);

  /// Stamp the fixed objects of `db` into the base maps, reading the
  /// view's SoA geometry (db must be finalize()d; fixed positions are
  /// always fresh by the view contract). Call once.
  void stampFixed(const PlacementDB& db);

  /// Additionally stamp movable-but-not-optimized charges (e.g. standard
  /// cells pinned during the filler-only placement of Sec. VI-B) into the
  /// static base map. Raw smoothed occupancy, no rho_t scaling: these
  /// objects already sit near the target density. Cumulative until
  /// clearStatic().
  void stampStaticCharges(const ChargeView& charges);
  void clearStatic();

  /// Stamp the movable charges and solve the Poisson system for the
  /// field. After this, gradient() and the field accessors are valid for
  /// `charges`; energy() and potential() are computed on their first read.
  /// With a pool the scatter, the spectral solve and the per-bin maps run
  /// on the pool's threads; results are bit-identical for any thread count
  /// (deterministic scatter: BinGrid::stampAll).
  void update(const ChargeView& charges, ThreadPool* pool = nullptr);

  /// Total potential energy of the movable charges at the last update(),
  /// N(v). The first read after an update synthesizes psi (on `pool` when
  /// given; bit-identical either way) and sums N serially; later reads
  /// return the cached value. The optimizer never reads it.
  [[nodiscard]] double energy(ThreadPool* pool = nullptr);

  /// Density gradient dN/d(cx,cy) for every charge: the charge times the
  /// field averaged over its (smoothed) footprint. Output spans must have
  /// charges.size() entries.
  void gradient(const ChargeView& charges, std::span<double> gx,
                std::span<double> gy, ThreadPool* pool = nullptr) const;

  /// Exact-footprint density overflow tau of the given movable-only view
  /// (Sec. III: mGP terminates at tau <= 10%).
  [[nodiscard]] double overflow(const ChargeView& movablesOnly,
                                ThreadPool* pool = nullptr) const;

  [[nodiscard]] const BinGrid& grid() const { return grid_; }
  [[nodiscard]] double targetDensity() const { return rhoT_; }
  /// Current total charge density per bin (occupancy units, incl. fixed).
  [[nodiscard]] std::span<const double> density() const { return rho_; }
  /// Potential psi per bin, synthesized on the first read after an
  /// update (see PoissonSolver::psi).
  [[nodiscard]] std::span<const double> potential(
      ThreadPool* pool = nullptr) {
    return solver_.psi(pool);
  }
  [[nodiscard]] std::span<const double> fieldX() const {
    return solver_.fieldX();
  }
  [[nodiscard]] std::span<const double> fieldY() const {
    return solver_.fieldY();
  }

 private:
  /// Smoothed footprint of a charge: inflated dims + conserved charge.
  struct Footprint {
    Rect r;
    double scale;  // charge density multiplier so that area*scale == q
  };
  [[nodiscard]] Footprint smoothed(double cx, double cy, double w,
                                   double h) const;

  /// Zero-filled per-bin buffer: from the arena ("den." keys) when one
  /// was given, otherwise from owned storage.
  std::span<double> buf(ScratchArena* arena, const char* key, std::size_t n);

  /// BinGrid::stampAll's row-span scratch for n objects: the arena's
  /// "den.rowSpans" key, or owned storage. The solver grid and the overflow
  /// grid share it because their stampAll calls never overlap.
  std::span<std::int32_t> rowSpans(std::size_t n) const;

  BinGrid grid_;
  BinGrid ovfGrid_;  // coarser grid for the overflow metric (see bingrid.h)
  double rhoT_;
  PoissonSolver solver_;
  // Backing store for the maps below when no arena was supplied. Inner
  // heap buffers are pointer-stable under outer growth, so spans hold.
  std::vector<std::vector<double>> own_;
  mutable std::vector<std::int32_t> ownRowSpans_;
  ScratchArena* arena_ = nullptr;  // "den.rowSpans" lease, when given
  std::span<double> fixedSolver_;  // rho_t-scaled fixed occupancy
  std::span<double> fixedExact_;   // exact fixed area per overflow bin
  std::span<double> staticCharge_; // pinned-movable charge (area) per bin
  std::span<double> movCharge_;    // stamped movable charge (area) per bin
  std::span<double> rho_;          // total occupancy fed to the solver
  std::span<double> ovfScratch_;   // per-overflow-bin movable area scratch
  double energy_ = 0.0;
  bool energyStale_ = false;  // update() ran since energy_ was summed
};

}  // namespace ep
