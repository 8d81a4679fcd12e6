// Flat structure-of-arrays core shared by every kernel layer.
//
// PlacementView is the cache-friendly mirror of PlacementDB that the hot
// loops actually sweep: contiguous geometry arrays (lx/ly/w/h/area split
// from names and flags), a movable-index remap, one canonical pin CSR
// (net->pins and object->pins) plus the object->nets CSR, and a keyed
// scratch arena that lets the Nesterov loop run with zero heap
// allocations after warm-up.
//
// Lifetime and ownership rules (docs/ARCHITECTURE.md has the diagram):
//  * Topology (CSRs, remap, dims) is immutable between finalize() calls.
//    PlacementDB::finalize() rebuilds the view; anything that edits nets,
//    pins or object dims afterwards must re-finalize before the next
//    view consumer runs (the flow does this when freezing macros).
//  * Positions (lx/ly) are mutable: syncPositionsFromDb() refreshes them
//    from the objects and pushPositionsToDb() writes them back. During
//    global placement the optimizer owns movable positions; the view's
//    copies are only authoritative for FIXED objects, which never move
//    after finalize.
//  * Spans returned by accessors point into the view and are valid until
//    the next finalize()/build(). netsOf() spans share that lifetime.
//  * The arena is single-threaded: request buffers from the orchestrating
//    thread only, never from inside a parallelFor body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/memory_budget.h"

namespace ep {

class PlacementDB;

/// Keyed bump-free scratch pool. Each (type, key) pair names one buffer
/// that is resized on request but never shrunk, so a steady-state caller
/// that asks for the same key with a non-growing size gets the same
/// storage back with no allocation. growthEvents() counts reallocation
/// (growth) events so tests can assert reuse-without-growth.
class ScratchArena {
 public:
  ScratchArena() = default;
  /// A copy holds the same buffers but no budget and no charge: it pays
  /// only for its own growth once setBudget() attaches one.
  ScratchArena(const ScratchArena& other);
  ScratchArena& operator=(const ScratchArena& other);
  /// A move takes the buffers together with their charge.
  ScratchArena(ScratchArena&& other) noexcept;
  ScratchArena& operator=(ScratchArena&& other) noexcept;
  /// Returns every byte this arena charged to its budget.
  ~ScratchArena() { releaseCharge(); }

  /// Borrow a double buffer named `key`, resized to n elements. Contents
  /// are unspecified (previous contents or garbage) — callers must fill.
  std::span<double> doubles(std::string_view key, std::size_t n);
  /// Same for int32 buffers.
  std::span<std::int32_t> ints(std::string_view key, std::size_t n);

  [[nodiscard]] std::size_t bufferCount() const {
    return d_.size() + i_.size();
  }
  [[nodiscard]] std::size_t capacityBytes() const;
  /// Number of times a request outgrew its key's capacity since
  /// construction (growth == heap traffic). Flat counter == full reuse.
  [[nodiscard]] long growthEvents() const { return growth_; }

  /// Attaches a memory budget: every growth event charges exactly the new
  /// bytes it reserves *before* allocating, throwing MemoryBudgetExceeded
  /// on a breach (the supervisor converts it to kResourceExhausted at the
  /// stage boundary). Steady-state borrows — the only thing kernels do
  /// after warm-up — never touch the budget. The charge is held until the
  /// arena is destroyed or assigned over, or the budget is swapped:
  /// attaching a different budget (or nullptr, which detaches) first
  /// returns everything charged to the old one.
  void setBudget(MemoryBudget* budget);
  [[nodiscard]] MemoryBudget* budget() const { return budget_; }

 private:
  void releaseCharge();

  std::map<std::string, std::vector<double>, std::less<>> d_;
  std::map<std::string, std::vector<std::int32_t>, std::less<>> i_;
  long growth_ = 0;
  MemoryBudget* budget_ = nullptr;  // not owned; must outlive the arena
  std::size_t charged_ = 0;         // owed back to budget_
};

/// Immutable-topology, mutable-position SoA snapshot of a PlacementDB.
/// Built by PlacementDB::finalize(); reached via PlacementDB::view().
class PlacementView {
 public:
  /// (Re)build every array from the DB. Called by PlacementDB::finalize().
  void build(const PlacementDB& db);
  [[nodiscard]] bool built() const { return built_; }

  // --- counts ---------------------------------------------------------------
  [[nodiscard]] std::size_t numObjects() const { return w_.size(); }
  [[nodiscard]] std::size_t numNets() const {
    return netPinStart_.empty() ? 0 : netPinStart_.size() - 1;
  }
  [[nodiscard]] std::size_t numPins() const { return pinObj_.size(); }
  [[nodiscard]] std::size_t numMovable() const { return movable_.size(); }

  // --- object geometry (object-indexed) -------------------------------------
  [[nodiscard]] std::span<const double> w() const { return w_; }
  [[nodiscard]] std::span<const double> h() const { return h_; }
  [[nodiscard]] std::span<const double> area() const { return area_; }
  /// Lower-left corners. Fixed entries are always fresh; movable entries
  /// are only current after syncPositionsFromDb() (see header comment).
  [[nodiscard]] std::span<const double> lx() const { return lx_; }
  [[nodiscard]] std::span<const double> ly() const { return ly_; }
  /// static_cast<std::uint8_t>(ObjKind) per object (no netlist.h include).
  [[nodiscard]] std::span<const std::uint8_t> kind() const { return kind_; }
  /// 1 for fixed objects, 0 for movable.
  [[nodiscard]] std::span<const std::uint8_t> fixedMask() const {
    return fixed_;
  }

  // --- movable remap --------------------------------------------------------
  /// Movable slot -> object id (same order as PlacementDB::movable()).
  [[nodiscard]] std::span<const std::int32_t> movable() const {
    return movable_;
  }
  /// Object id -> movable slot, -1 for fixed objects.
  [[nodiscard]] std::span<const std::int32_t> objToMovable() const {
    return objToMovable_;
  }

  // --- net -> pin CSR (pin id == global position, (net, pin) ordered) -------
  [[nodiscard]] std::span<const std::int32_t> netPinStart() const {
    return netPinStart_;
  }
  [[nodiscard]] std::span<const std::int32_t> pinObj() const { return pinObj_; }
  [[nodiscard]] std::span<const double> pinOx() const { return pinOx_; }
  [[nodiscard]] std::span<const double> pinOy() const { return pinOy_; }
  /// Owning net of each pin (inverse of netPinStart ranges).
  [[nodiscard]] std::span<const std::int32_t> pinNet() const { return pinNet_; }
  [[nodiscard]] std::span<const double> netWeight() const { return netWeight_; }
  [[nodiscard]] std::int32_t netDegree(std::int32_t n) const {
    return netPinStart_[static_cast<std::size_t>(n) + 1] -
           netPinStart_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::int32_t maxNetDegree() const { return maxNetDegree_; }

  // --- object -> pin CSR (values are global pin ids, ascending) -------------
  [[nodiscard]] std::span<const std::int32_t> objPinStart() const {
    return objPinStart_;
  }
  [[nodiscard]] std::span<const std::int32_t> objPinIds() const {
    return objPinIds_;
  }

  // --- object -> net CSR (one entry per incident pin, net-major order) ------
  [[nodiscard]] std::span<const std::int32_t> objNetStart() const {
    return objNetStart_;
  }
  [[nodiscard]] std::span<const std::int32_t> objNetIds() const {
    return objNetIds_;
  }
  [[nodiscard]] std::span<const std::int32_t> netsOf(std::int32_t obj) const {
    const auto b =
        static_cast<std::size_t>(objNetStart_[static_cast<std::size_t>(obj)]);
    const auto e = static_cast<std::size_t>(
        objNetStart_[static_cast<std::size_t>(obj) + 1]);
    return {objNetIds_.data() + b, e - b};
  }
  [[nodiscard]] std::int32_t degreeOf(std::int32_t obj) const {
    return objNetStart_[static_cast<std::size_t>(obj) + 1] -
           objNetStart_[static_cast<std::size_t>(obj)];
  }

  // --- position sync (stage boundaries only) --------------------------------
  /// Refresh lx/ly from the DB objects (all of them).
  void syncPositionsFromDb(const PlacementDB& db);
  /// Write the view's lx/ly back into the DB objects (all of them).
  void pushPositionsToDb(PlacementDB& db) const;
  /// Overwrite one object's position in the view (movable sync helper).
  void setPosition(std::int32_t obj, double newLx, double newLy) {
    lx_[static_cast<std::size_t>(obj)] = newLx;
    ly_[static_cast<std::size_t>(obj)] = newLy;
  }

  /// Bytes held by the view's own arrays (geometry + all three CSRs),
  /// i.e. the O(cells + pins) construction cost a budgeted session charges
  /// up front. Excludes the arena, which meters itself per growth event.
  [[nodiscard]] std::size_t footprintBytes() const;

  /// Per-run scratch pool shared by the kernels driving this view. Only
  /// one engine/evaluator pair may lease a key namespace at a time; keys
  /// are prefixed per subsystem ("gp.", "wl.", "den.") to keep leases
  /// disjoint. Single-threaded: call from the orchestrating thread.
  [[nodiscard]] ScratchArena& arena() const { return arena_; }

 private:
  std::vector<double> w_, h_, area_, lx_, ly_;
  std::vector<std::uint8_t> kind_, fixed_;
  std::vector<std::int32_t> movable_, objToMovable_;
  std::vector<std::int32_t> netPinStart_, pinObj_, pinNet_;
  std::vector<double> pinOx_, pinOy_, netWeight_;
  std::vector<std::int32_t> objPinStart_, objPinIds_;
  std::vector<std::int32_t> objNetStart_, objNetIds_;
  std::int32_t maxNetDegree_ = 0;
  mutable ScratchArena arena_;
  bool built_ = false;
};

}  // namespace ep
