#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/fault_injector.h"

namespace ep {

namespace {

int hardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// How long a worker waits for the next job, and the caller for the last
/// partition, before parking on a condition variable: two to three times
/// what waking parked workers costs (the idle pool_dispatch rows of
/// bench_hotpaths), so the serial glue between the kernels of a GP
/// iteration never parks the pool, while an idle pool stops spinning
/// almost at once.
constexpr auto kSpinBudget = std::chrono::microseconds(200);

/// Tells the core this is a spin-wait (frees pipeline resources for a
/// sibling hyperthread); a no-op where the ISA has no such hint.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` or until the spin budget is spent; returns
/// whether `ready()` became true. A short burst of relax hints catches the
/// back-to-back case; after it the loop yields the core between checks, so
/// on an oversubscribed machine a spinner hands its time slice to a thread
/// with real work (often the very one it waits for) instead of burning it.
template <typename Pred>
bool spinUntil(const Pred& ready) {
  for (int i = 0; i < 128; ++i) {
    if (ready()) return true;
    cpuRelax();
  }
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    std::this_thread::yield();
    if (ready()) return true;
  } while (std::chrono::steady_clock::now() < deadline);
  return false;
}

}  // namespace

// Dispatch protocol (docs/PERFORMANCE.md, "The thread pool"):
//  * The caller writes the job fields, stores `pending`, then bumps
//    `epoch` with release order; a worker that acquire-loads the new epoch
//    therefore sees the whole job.
//  * A worker publishes its partition (including a captured exception) by
//    decrementing `pending` (acq_rel); the caller acquire-loads
//    `pending == 0` before reading `errors` or reusing the job slot.
//  * Both sides spin for kSpinBudget, then park on a condition variable.
//    Parking is announced with a seq_cst store/increment (`sleepers`,
//    `callerParked`) before re-checking the condition under `mu`, and the
//    waker tests that flag with seq_cst after its own seq_cst update, so
//    at least one side sees the other: no wake-up is lost, and the fast
//    path (nobody parked) touches no lock.
struct ThreadPool::Impl {
  // One persistent worker per partition 1..P-1; the caller runs partition 0.
  std::vector<std::thread> workers;

  std::atomic<std::uint64_t> epoch{0};  // bumped per job (and on shutdown)
  std::atomic<int> pending{0};          // workers still running this job
  std::atomic<int> sleepers{0};         // workers parked (or about to)
  std::atomic<bool> callerParked{false};
  bool stop = false;  // written before the final epoch bump

  std::mutex mu;
  std::condition_variable wake;
  std::condition_variable done;

  // Current job (valid while pending > 0).
  RawFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t n = 0;
  std::size_t parts = 1;
  std::size_t throwPart = SIZE_MAX;  // fault injection: partition that throws
  std::vector<std::exception_ptr> errors;

  void execute(std::size_t part) {
    const std::size_t b = part * n / parts;
    const std::size_t e = (part + 1) * n / parts;
    try {
      if (part == throwPart) {
        throw std::runtime_error("injected fault: parallel.task");
      }
      if (b < e) fn(ctx, part, b, e);
    } catch (...) {
      errors[part] = std::current_exception();
    }
  }

  /// Blocks until the epoch differs from `seen` and returns it. Spins
  /// first only when `spin` (a job just finished, so another is likely).
  std::uint64_t awaitEpoch(std::uint64_t seen, bool spin) {
    auto moved = [&] {
      return epoch.load(std::memory_order_acquire) != seen;
    };
    if (!(spin && spinUntil(moved))) {
      sleepers.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(mu);
        wake.wait(lock, [&] {
          return epoch.load(std::memory_order_seq_cst) != seen;
        });
      }
      sleepers.fetch_sub(1, std::memory_order_relaxed);
    }
    return epoch.load(std::memory_order_acquire);
  }

  /// Bumps the epoch, waking parked workers only when there are any.
  void publish() {
    epoch.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      // Taking `mu` orders the notify after any parking worker's predicate
      // check, so it is either still ahead of the check or inside wait().
      { std::lock_guard<std::mutex> lock(mu); }
      wake.notify_all();
    }
  }

  void finishPartition() {
    if (pending.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        callerParked.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> lock(mu); }
      done.notify_one();
    }
  }

  void awaitWorkers() {
    auto finished = [&] {
      return pending.load(std::memory_order_acquire) == 0;
    };
    if (spinUntil(finished)) return;
    callerParked.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [&] {
        return pending.load(std::memory_order_seq_cst) == 0;
      });
    }
    callerParked.store(false, std::memory_order_relaxed);
  }

  void workerLoop(std::size_t part) {
    std::uint64_t seen = 0;
    bool spin = false;  // workers start parked
    for (;;) {
      seen = awaitEpoch(seen, spin);
      if (stop) return;
      execute(part);
      finishPartition();
      spin = true;
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  nThreads_ = threads <= 0 ? hardwareThreads() : threads;
  impl_->errors.resize(static_cast<std::size_t>(nThreads_));
  for (int p = 1; p < nThreads_; ++p) {
    impl_->workers.emplace_back(
        [this, p] { impl_->workerLoop(static_cast<std::size_t>(p)); });
  }
}

ThreadPool::~ThreadPool() {
  impl_->stop = true;  // published to the workers by the epoch bump
  impl_->publish();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::run(std::size_t n, RawFn fn, void* ctx, std::size_t grain) {
  // The fault site is evaluated on the orchestrating thread (the injector
  // is not thread-safe); when it fires, the *last* partition's task throws,
  // so the capture-and-rethrow path is exercised on a genuine worker thread
  // whenever more than one partition runs.
  std::size_t throwPart = SIZE_MAX;
  if (inj_ != nullptr && inj_->active()) {
    if (inj_->fire("parallel.task") != nullptr) {
      throwPart = static_cast<std::size_t>(nThreads_) - 1;
    }
  }

  Impl& im = *impl_;
  if (nThreads_ == 1 || n < grain || n == 0) {
    // Inline: identical results by the determinism contract. The injected
    // throw still propagates (from the caller's own partition).
    im.fn = fn;
    im.ctx = ctx;
    im.n = n;
    im.parts = 1;
    im.throwPart = throwPart == SIZE_MAX ? SIZE_MAX : 0;
    im.errors[0] = nullptr;
    im.execute(0);
    if (im.errors[0]) std::rethrow_exception(im.errors[0]);
    return;
  }

  im.fn = fn;
  im.ctx = ctx;
  im.n = n;
  im.parts = static_cast<std::size_t>(nThreads_);
  im.throwPart = throwPart;
  for (auto& e : im.errors) e = nullptr;
  im.pending.store(nThreads_ - 1, std::memory_order_relaxed);
  im.publish();
  im.execute(0);  // caller participates as partition 0
  im.awaitWorkers();
  for (auto& e : im.errors) {  // lowest partition wins, deterministically
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ep
