// RuntimeContext: the explicit runtime bundle that replaced every process
// global in the placer.
//
// One context = one isolated placer runtime. It owns:
//   * a deterministic fixed-partition ThreadPool (per-session thread cap),
//   * a FaultInjector (faults armed here never fire in another context),
//   * the root Rng stream (seed material for stochastic components),
//   * a LogSink (per-session prefix + severity filter),
//   * a StatsRegistry (named counters/gauges for telemetry),
//   * an optional wall-clock deadline, the run's only wall-clock limit,
//   * a cooperative cancel token: any thread may requestCancel(), long
//     loops (the Nesterov iteration, the supervisor's retry loops) poll
//     cancelled() alongside deadlineExceeded() and stop at the next safe
//     point with a typed kCancelled or kTimeout status — positions stay
//     finite, snapshots intact.
//
// Ownership rules (see docs/ARCHITECTURE.md, "Runtime context & session"):
// a context outlives everything it is handed to; engines and stage
// functions borrow it and never store it past their own lifetime. Library
// entry points take a required `RuntimeContext&` after their required
// parameters and before their defaulted ones. There is no process-wide
// context: a tool that does not care about isolation declares
// `RuntimeContext ctx;` (hardware-sized pool, warnings only), and anything
// that runs two flows in one process gives each its own (PlacerSession does
// this for you).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "util/fault_injector.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ep {

/// Thread-safe named metric store. Writers are hot-ish paths (per stage,
/// per recovery, per snapshot — never per iteration of an inner kernel),
/// so a single mutex is fine.
class StatsRegistry {
 public:
  /// Adds `delta` to the named counter (creating it at 0).
  void add(const std::string& name, double delta) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] += delta;
  }
  /// Overwrites the named gauge.
  void set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = value;
  }
  /// Current value, or 0 when the metric was never touched.
  [[nodiscard]] double value(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// Copy of the whole registry (for reports / JSON dumps).
  [[nodiscard]] std::map<std::string, double> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    values_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
};

struct RuntimeOptions {
  /// Pool size; <= 0 selects hardware concurrency.
  int threads = 0;
  /// Root RNG seed. Components derive their own streams from explicit
  /// seeds, so this only feeds nextSeed() consumers.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Log line prefix identifying this context's output (session name).
  std::string logPrefix;
  LogLevel logLevel = LogLevel::kWarn;
  bool logTimestamps = true;
  /// Wall-clock budget in seconds from context construction; <= 0 means no
  /// deadline. It is the run's only wall-clock limit: the GP loop checks it
  /// every iteration and stops with kTimeout, and the supervisor starts no
  /// retry past it.
  double wallBudgetSeconds = 0.0;
  /// Memory cap in bytes for this context's big allocations (arena growth,
  /// view/CSR construction, snapshot buffers, bin grid); 0 = unlimited.
  /// Breaches surface as kResourceExhausted, never as bad_alloc aborts.
  std::size_t memBudgetBytes = 0;
};

class RuntimeContext {
 public:
  RuntimeContext() : RuntimeContext(RuntimeOptions{}) {}
  explicit RuntimeContext(RuntimeOptions opt);
  /// Shorthand for tests/benches that only care about the thread cap.
  explicit RuntimeContext(int threads);
  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  [[nodiscard]] ThreadPool& pool() { return pool_; }
  [[nodiscard]] FaultInjector& faults() { return faults_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] LogSink& log() { return sink_; }
  [[nodiscard]] const LogSink& log() const { return sink_; }
  [[nodiscard]] StatsRegistry& stats() { return stats_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] MemoryBudget& memory() { return memory_; }
  [[nodiscard]] const MemoryBudget& memory() const { return memory_; }

  /// Fresh 64-bit seed from the root stream (setup-time use only; the root
  /// Rng is not synchronized).
  [[nodiscard]] std::uint64_t nextSeed() { return rng_.next(); }

  /// The root seed this context was constructed with (recorded in run
  /// records so a baseline is reproducible from the record alone).
  [[nodiscard]] std::uint64_t seed() const { return opt_.seed; }
  /// Worker-thread cap the pool was built with.
  [[nodiscard]] int threadCount() const { return pool_.threads(); }

  /// Seconds since construction.
  [[nodiscard]] double elapsedSeconds() const { return clock_.seconds(); }
  /// True once the wall-clock deadline has passed; reads no clock when no
  /// budget is set.
  [[nodiscard]] bool deadlineExceeded() const {
    return wallBudgetSeconds_ > 0.0 && clock_.seconds() >= wallBudgetSeconds_;
  }

  /// Requests cooperative cancellation. Safe from any thread (the serving
  /// layer calls it from its control plane while the flow runs); the first
  /// caller's reason wins. Idempotent.
  void requestCancel(const std::string& reason = "cancel requested") {
    {
      std::lock_guard<std::mutex> lock(cancelMu_);
      if (cancelReason_.empty()) cancelReason_ = reason;
    }
    cancelRequested_.store(true, std::memory_order_release);
  }
  /// Cheap poll for long-running loops (one relaxed atomic load).
  [[nodiscard]] bool cancelled() const {
    return cancelRequested_.load(std::memory_order_acquire);
  }
  /// Why requestCancel() was called; empty while not cancelled.
  [[nodiscard]] std::string cancelReason() const {
    std::lock_guard<std::mutex> lock(cancelMu_);
    return cancelReason_;
  }

 private:
  RuntimeOptions opt_;
  LogSink sink_;          // before faults_: the injector points at it
  FaultInjector faults_;  // before pool_: the pool points at it
  ThreadPool pool_;
  Rng rng_;
  StatsRegistry stats_;
  MemoryBudget memory_;
  Timer clock_;
  double wallBudgetSeconds_ = 0.0;
  std::atomic<bool> cancelRequested_{false};
  mutable std::mutex cancelMu_;
  std::string cancelReason_;
};

}  // namespace ep
