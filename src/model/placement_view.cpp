#include "model/placement_view.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "model/netlist.h"
#include "util/checked_math.h"

namespace ep {

namespace {

template <typename T>
std::span<T> borrow(std::map<std::string, std::vector<T>, std::less<>>& pool,
                    std::string_view key, std::size_t n, long& growth,
                    MemoryBudget* budget, std::size_t& charged) {
  auto it = pool.find(key);
  if (it == pool.end()) {
    it = pool.emplace(std::string(key), std::vector<T>()).first;
  }
  auto& buf = it->second;
  if (n > buf.capacity()) {
    // Charge the delta before growing; reserve(n) allocates exactly n
    // elements, so the accounting is exact and a rejected charge leaves
    // the old buffer (and the budget) untouched.
    if (budget != nullptr) {
      const std::size_t bytes = (n - buf.capacity()) * sizeof(T);
      budget->chargeOrThrow(bytes);
      charged += bytes;
    }
    buf.reserve(n);
    ++growth;
  }
  buf.resize(n);  // within capacity this never reallocates
  return {buf.data(), n};
}

}  // namespace

ScratchArena::ScratchArena(const ScratchArena& other)
    : d_(other.d_), i_(other.i_), growth_(other.growth_) {}

ScratchArena& ScratchArena::operator=(const ScratchArena& other) {
  if (this != &other) {
    releaseCharge();
    d_ = other.d_;
    i_ = other.i_;
    growth_ = other.growth_;
    budget_ = nullptr;
  }
  return *this;
}

ScratchArena::ScratchArena(ScratchArena&& other) noexcept
    : d_(std::move(other.d_)),
      i_(std::move(other.i_)),
      growth_(other.growth_),
      budget_(other.budget_),
      charged_(std::exchange(other.charged_, 0)) {}

ScratchArena& ScratchArena::operator=(ScratchArena&& other) noexcept {
  if (this != &other) {
    releaseCharge();
    d_ = std::move(other.d_);
    i_ = std::move(other.i_);
    growth_ = other.growth_;
    budget_ = other.budget_;
    charged_ = std::exchange(other.charged_, 0);
  }
  return *this;
}

void ScratchArena::releaseCharge() {
  if (budget_ != nullptr) budget_->release(charged_);
  charged_ = 0;
}

void ScratchArena::setBudget(MemoryBudget* budget) {
  if (budget == budget_) return;
  releaseCharge();
  budget_ = budget;
}

std::span<double> ScratchArena::doubles(std::string_view key, std::size_t n) {
  return borrow(d_, key, n, growth_, budget_, charged_);
}

std::span<std::int32_t> ScratchArena::ints(std::string_view key,
                                           std::size_t n) {
  return borrow(i_, key, n, growth_, budget_, charged_);
}

std::size_t ScratchArena::capacityBytes() const {
  std::size_t b = 0;
  for (const auto& [k, v] : d_) b += v.capacity() * sizeof(double);
  for (const auto& [k, v] : i_) b += v.capacity() * sizeof(std::int32_t);
  return b;
}

void PlacementView::build(const PlacementDB& db) {
  const std::size_t nObj = db.objects.size();
  const std::size_t nNet = db.nets.size();
  // Backstop for the 32-bit index contract. Validated entry points reject
  // oversized instances earlier with a typed kInvalidInput (capacity plan /
  // PlacementDB::validate); a caller that skips both still must not wrap
  // the CSR indices into heap corruption.
  {
    std::size_t nPinsAll = 0;
    for (const auto& net : db.nets) nPinsAll += net.pins.size();
    if (!fitsIndex32(nObj) || !fitsIndex32(nNet) || !fitsIndex32(nPinsAll)) {
      throw std::length_error(
          "PlacementView: instance exceeds the 32-bit index space "
          "(objects/nets/pins must each stay under 2^31)");
    }
  }

  // Geometry split from names and flags.
  w_.resize(nObj);
  h_.resize(nObj);
  area_.resize(nObj);
  lx_.resize(nObj);
  ly_.resize(nObj);
  kind_.resize(nObj);
  fixed_.resize(nObj);
  movable_.clear();
  objToMovable_.assign(nObj, -1);
  for (std::size_t i = 0; i < nObj; ++i) {
    const Object& o = db.objects[i];
    w_[i] = o.w;
    h_[i] = o.h;
    area_[i] = o.area();
    lx_[i] = o.lx;
    ly_[i] = o.ly;
    kind_[i] = static_cast<std::uint8_t>(o.kind);
    fixed_[i] = o.fixed ? 1 : 0;
    if (!o.fixed) {
      objToMovable_[i] = static_cast<std::int32_t>(movable_.size());
      movable_.push_back(static_cast<std::int32_t>(i));
    }
  }

  // Net -> pin CSR in (net, pin) order; pin id == global array position.
  std::size_t nPins = 0;
  for (const auto& net : db.nets) nPins += net.pins.size();
  netPinStart_.resize(nNet + 1);
  netWeight_.resize(nNet);
  pinObj_.resize(nPins);
  pinOx_.resize(nPins);
  pinOy_.resize(nPins);
  pinNet_.resize(nPins);
  maxNetDegree_ = 0;
  std::size_t p = 0;
  for (std::size_t n = 0; n < nNet; ++n) {
    const Net& net = db.nets[n];
    netPinStart_[n] = static_cast<std::int32_t>(p);
    netWeight_[n] = net.weight;
    maxNetDegree_ =
        std::max(maxNetDegree_, static_cast<std::int32_t>(net.pins.size()));
    for (const PinRef& pin : net.pins) {
      pinObj_[p] = pin.obj;
      pinOx_[p] = pin.ox;
      pinOy_[p] = pin.oy;
      pinNet_[p] = static_cast<std::int32_t>(n);
      ++p;
    }
  }
  netPinStart_[nNet] = static_cast<std::int32_t>(p);

  // Object -> pin and object -> net CSRs. Both are filled by walking pins
  // in (net, pin) order, so per-object pin-id lists are ascending and the
  // object -> net list matches the historical PlacementDB CSR exactly
  // (one entry per incident pin, net-major).
  std::vector<std::int32_t> counts(nObj + 1, 0);
  for (std::size_t i = 0; i < nPins; ++i) {
    ++counts[static_cast<std::size_t>(pinObj_[i]) + 1];
  }
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  objPinStart_ = counts;
  objNetStart_ = counts;
  objPinIds_.resize(nPins);
  objNetIds_.resize(nPins);
  std::vector<std::int32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < nPins; ++i) {
    const auto obj = static_cast<std::size_t>(pinObj_[i]);
    const auto at = static_cast<std::size_t>(cursor[obj]++);
    objPinIds_[at] = static_cast<std::int32_t>(i);
    objNetIds_[at] = pinNet_[i];
  }

  built_ = true;
}

std::size_t PlacementView::footprintBytes() const {
  const auto d = [](const std::vector<double>& v) {
    return v.capacity() * sizeof(double);
  };
  const auto i = [](const std::vector<std::int32_t>& v) {
    return v.capacity() * sizeof(std::int32_t);
  };
  return d(w_) + d(h_) + d(area_) + d(lx_) + d(ly_) + kind_.capacity() +
         fixed_.capacity() + i(movable_) + i(objToMovable_) +
         i(netPinStart_) + i(pinObj_) + i(pinNet_) + d(pinOx_) + d(pinOy_) +
         d(netWeight_) + i(objPinStart_) + i(objPinIds_) + i(objNetStart_) +
         i(objNetIds_);
}

void PlacementView::syncPositionsFromDb(const PlacementDB& db) {
  const std::size_t nObj = db.objects.size();
  for (std::size_t i = 0; i < nObj; ++i) {
    lx_[i] = db.objects[i].lx;
    ly_[i] = db.objects[i].ly;
  }
}

void PlacementView::pushPositionsToDb(PlacementDB& db) const {
  const std::size_t nObj = db.objects.size();
  for (std::size_t i = 0; i < nObj; ++i) {
    db.objects[i].lx = lx_[i];
    db.objects[i].ly = ly_[i];
  }
}

}  // namespace ep
