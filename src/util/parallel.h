// Deterministic fixed-partition thread pool for the placement hot paths.
//
// Design goals, in priority order:
//
//  1. *Determinism.* Every parallel construct here is bit-deterministic:
//     results are a pure function of the input, never of the thread count
//     or of scheduling. parallelFor splits [0, n) into contiguous,
//     statically computed ranges, so it is safe exactly when every index
//     writes disjoint outputs (element-wise kernels) or when the output
//     partitioning itself is index-based (scatter kernels that partition
//     the *output* bins, see BinGrid::stampAll). There is no parallel
//     reduction: a sum over items is computed in two phases, as
//     WlEvaluator does — a parallelFor writes one slot per item, then the
//     slots are folded (or gathered through a CSR incidence list) serially
//     in index order, the identical floating-point operation sequence as
//     the plain serial loop, for any thread count.
//
//  2. *Serial equivalence.* With --threads 1 (or n below the grain) the
//     pool runs the same code inline on the caller; combined with (1),
//     `--threads N` reproduces the single-thread results bit-exactly.
//
//  3. *Typed failure.* A task that throws does not std::terminate the
//     process: exceptions are captured per partition and the first one (in
//     partition order, hence deterministically) is rethrown on the calling
//     thread, where the flow boundary converts it to ep::Status
//     (StatusCode::kInternal). The "parallel.task" fault site injects such
//     a throw for the robustness suite.
//
// There is no process-global pool: each RuntimeContext owns one, sized at
// construction (CLI --threads / SessionOptions::threads). Concurrent
// sessions therefore never share scheduling state, and by the determinism
// contract their per-session thread caps cannot change results.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace ep {

class FaultInjector;

class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return nThreads_; }

  /// Below this many indices parallelFor runs inline on the caller: the
  /// dispatch latency dwarfs the work, and (by the determinism contract)
  /// the results are identical either way.
  static constexpr std::size_t kGrain = 2048;

  /// Runs fn(partition, begin, end) over a fixed contiguous split of
  /// [0, n): partition p of P covers [p*n/P, (p+1)*n/P). The caller
  /// executes partition 0; blocks until every partition finished. The
  /// first captured task exception (lowest partition index) is rethrown.
  /// `grain` is the dispatch threshold: below it the loop runs inline
  /// (kGrain suits element-wise work; pass 1 when each index is heavy,
  /// e.g. a whole FFT row).
  template <typename F>
  void parallelFor(std::size_t n, F&& fn, std::size_t grain = kGrain) {
    run(n, [](void* ctx, std::size_t part, std::size_t b, std::size_t e) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(part, b, e);
    }, &fn, grain);
  }

  /// Wires the "parallel.task" fault site to `inj` (nullptr disables the
  /// site). Called by the owning RuntimeContext during construction; not
  /// safe while parallel work is in flight.
  void setFaultInjector(FaultInjector* inj) { inj_ = inj; }

 private:
  using RawFn = void (*)(void* ctx, std::size_t part, std::size_t begin,
                         std::size_t end);
  void run(std::size_t n, RawFn fn, void* ctx, std::size_t grain);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  FaultInjector* inj_ = nullptr;
  int nThreads_ = 1;
};

}  // namespace ep
