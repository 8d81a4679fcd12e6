// MemoryBudget: per-context accounting and capping of placer memory.
//
// One budget lives on each RuntimeContext; big allocators (ScratchArena
// growth, PlacementView/CSR construction, snapshot serialization buffers,
// the bin grid) *charge* it before allocating and *release* on teardown.
// The charge-before-allocate order is load-bearing: a rejected charge
// leaves both the accounting and the process heap exactly where they were,
// so a degraded retry (coarser bin grid, reduced checkpoint retention) can
// succeed within the remaining headroom instead of inheriting a
// poisoned counter.
//
// A zero limit (the default) disables enforcement but keeps the
// used/peak accounting, so peak-bytes reporting works even for
// unbudgeted jobs. All operations are single relaxed atomics (plus a
// CAS loop on a new high-water mark), cheap enough for per-growth-event
// call sites; nothing here runs per kernel iteration.
//
// Breaches surface either as `tryCharge() == false` (call sites that can
// return a Status directly) or as MemoryBudgetExceeded from
// chargeOrThrow() (call sites buried under allocation-free kernel APIs,
// e.g. ScratchArena::borrow). The FlowSupervisor catches the exception
// at stage boundaries and converts it to kResourceExhausted — a budget
// breach is a typed, per-job outcome, never a process abort.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace ep {

/// Thrown by chargeOrThrow() when a charge would exceed the limit. Carries
/// the sizes so the handler can log a useful message and the admission
/// estimator can be tuned against reality.
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  MemoryBudgetExceeded(std::size_t requested, std::size_t used,
                       std::size_t limit)
      : std::runtime_error("memory budget exceeded: requested " +
                           std::to_string(requested) + " B with " +
                           std::to_string(used) + " B charged of " +
                           std::to_string(limit) + " B limit"),
        requestedBytes(requested),
        usedBytes(used),
        limitBytes(limit) {}

  std::size_t requestedBytes;
  std::size_t usedBytes;
  std::size_t limitBytes;
};

class MemoryBudget {
 public:
  MemoryBudget() = default;
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Byte cap; 0 disables enforcement (accounting stays on).
  void setLimit(std::size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t limitBytes() const {
    return limit_.load(std::memory_order_relaxed);
  }
  /// True when a cap is set and charges can be rejected.
  [[nodiscard]] bool limited() const { return limitBytes() != 0; }

  /// Reserves `n` bytes against the budget. Returns false (leaving the
  /// accounting unchanged) when the charge would exceed a nonzero limit.
  /// Call *before* allocating, so a rejection costs nothing.
  [[nodiscard]] bool tryCharge(std::size_t n) {
    const std::size_t prev = used_.fetch_add(n, std::memory_order_relaxed);
    const std::size_t now = prev + n;
    const std::size_t limit = limit_.load(std::memory_order_relaxed);
    if (limit != 0 && now > limit) {
      used_.fetch_sub(n, std::memory_order_relaxed);
      return false;
    }
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  /// tryCharge() or throw MemoryBudgetExceeded. For call sites whose API
  /// has no Status channel (arena growth inside kernels).
  void chargeOrThrow(std::size_t n) {
    if (!tryCharge(n)) {
      throw MemoryBudgetExceeded(n, usedBytes(), limitBytes());
    }
  }

  /// Returns `n` bytes to the budget (clamped at zero so a conservative
  /// over-release can never wrap the counter).
  void release(std::size_t n) {
    std::size_t cur = used_.load(std::memory_order_relaxed);
    while (true) {
      const std::size_t next = cur >= n ? cur - n : 0;
      if (used_.compare_exchange_weak(cur, next,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  [[nodiscard]] std::size_t usedBytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// High-water mark of usedBytes() since construction/reset().
  [[nodiscard]] std::size_t peakBytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Clears used/peak (keeps the limit). Single-threaded setup only.
  void reset() {
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> limit_{0};
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
};

/// RAII charge for scoped buffers (snapshot serialization, transient
/// assembly) and for long-lived structures whose owner holds the charge
/// next to them (a V-cycle level's view). Charges in the constructor —
/// check ok() before allocating — and releases in the destructor. Moving
/// hands the held charge over; a default-constructed charge holds nothing.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ScopedCharge(MemoryBudget& budget, std::size_t bytes)
      : budget_(&budget), bytes_(bytes), ok_(budget.tryCharge(bytes)) {}
  ~ScopedCharge() { release(); }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ScopedCharge(ScopedCharge&& other) noexcept
      : budget_(other.budget_),
        bytes_(other.bytes_),
        ok_(std::exchange(other.ok_, false)) {}
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      release();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      ok_ = std::exchange(other.ok_, false);
    }
    return *this;
  }

  /// False when the charge was rejected (nothing is held; destructor is a
  /// no-op). Call sites translate this into kResourceExhausted.
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  void release() {
    if (ok_) budget_->release(bytes_);
    ok_ = false;
  }

  MemoryBudget* budget_ = nullptr;
  std::size_t bytes_ = 0;
  bool ok_ = false;
};

}  // namespace ep
