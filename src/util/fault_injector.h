// Deterministic fault injection for robustness tests and benches.
//
// Production code is instrumented at a few named *sites*; when a site is
// armed, the Nth pass through it corrupts data in a seeded, reproducible
// way. Sites currently wired in (the authoritative list is
// knownFaultSites(), which the chaos suite sweeps):
//   "nesterov.grad"     gradient buffer of the global placer (NaN / spike)
//   "fft.forward"       forward FFT output (NaN / spike)
//   "bookshelf.line"    Bookshelf line scanner (truncate = premature EOF)
//   "legalize.displace" Abacus clumping result (NaN / displaced cell)
//   "detail.swap"       detail-placement result (NaN / displaced cell)
//   "snapshot.write"    serialized snapshot bytes (bit flip / truncation)
//   "parallel.task"     a ThreadPool worker task throws; the pool must
//                       propagate it as ep::Status, not std::terminate
//   "serve.request"     one raw request line of the placement daemon (bit
//                       flip / truncation before parsing; typed rejection)
//   "serve.accept"      job admission in the daemon (firing rejects the
//                       submit with kUnavailable; neighbors unaffected)
//   "io.write"          ep::io durable write reports a short write (EIO)
//   "io.fsync"          ep::io fsync fails (EIO); transient, retried
//   "io.rename"         ep::io rename-into-place fails (EIO); retried
//   "io.enospc"         ep::io attempt fails with ENOSPC — persistent,
//                       never retried; isNoSpace() recognizes it and the
//                       supervisor degrades to snapshot-less mode
// The io.* sites take FaultKind::kError: the site returns a typed error
// instead of corrupting data. Arm with count=1 to fail one attempt (the
// retry succeeds) or count=-1 to exhaust the retry policy.
// With no armed sites the hot-path cost is one branch on an atomic bool, so
// the instrumentation stays in release builds. fire/corrupt are serialized
// by an internal mutex because instrumented kernels (e.g. fft.forward) now
// run on pool workers; which concurrent pass fires first is scheduling-
// dependent, so chaos tests assert typed degradation, not exact trajectories.
// Arm/disarm/reset still only from single-threaded test setup.
//
// There is no process-wide injector: each RuntimeContext owns one, and the
// kernels reach it through the context (or a FaultInjector* threaded down
// their constructors). Arming a fault in one session can therefore never
// fire in another session of the same process. The owning context also
// hands the injector its log sink, so a firing pass (and an io retry it
// causes) is logged, at debug level, with that session's prefix.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace ep {

class LogSink;

enum class FaultKind : std::uint8_t {
  kNaN,       ///< overwrite one entry with a quiet NaN
  kSpike,     ///< multiply one entry by `magnitude`
  kTruncate,  ///< report EOF / cut the stream short (stream sites only)
  kError,     ///< the site returns a typed error; no data is corrupted
              ///< (io.* sites, admission rejections)
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNaN;
  long atTick = 0;         ///< first site pass (0-based) that fires
  int count = 1;           ///< number of firing passes; -1 = every pass on
  double magnitude = 1e9;  ///< spike multiplier
};

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void arm(const std::string& site, FaultSpec spec);
  void disarm(const std::string& site);
  /// Disarms every site and resets tick/fire counters and the RNG.
  void reset();
  void reseed(std::uint64_t seed);

  /// Cheap hot-path guard: true when any site is armed.
  [[nodiscard]] bool active() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Advances `site`'s pass counter; returns the spec if this pass fires,
  /// nullptr otherwise (including when the site is not armed).
  const FaultSpec* fire(const std::string& site);

  /// Corrupts one seeded-random entry of `data` per the spec (kNaN/kSpike).
  void corrupt(std::span<double> data, const FaultSpec& spec);

  /// Byte-stream variant: kNaN/kSpike flip one seeded-random bit of `data`;
  /// kTruncate is the caller's concern (drop the tail of the stream).
  void corruptBytes(std::span<std::uint8_t> data, const FaultSpec& spec);

  /// Total number of times `site` has fired since arm/reset.
  [[nodiscard]] long fireCount(const std::string& site) const;

  /// The sink firing passes are logged to. Set by the owning
  /// RuntimeContext during construction; a standalone injector has none
  /// and logs nothing.
  void setLogSink(const LogSink* sink) { sink_ = sink; }
  [[nodiscard]] const LogSink* logSink() const { return sink_; }

 private:
  struct Armed {
    FaultSpec spec;
    long tick = 0;   // passes seen
    long fired = 0;  // passes that fired
  };
  mutable std::mutex mu_;  // serializes fire/corrupt from pool workers
  std::atomic<bool> armed_{false};
  std::map<std::string, Armed> sites_;
  Rng rng_{0xfa17ED5EEDULL};
  const LogSink* sink_ = nullptr;
};

/// Every fault site compiled into the tree. The chaos suite
/// (tests/test_chaos.cpp, ctest -L chaos) arms each one in turn and asserts
/// the flow degrades with a typed Status instead of crashing; keep this list
/// in sync when instrumenting a new site.
std::span<const char* const> knownFaultSites();

/// FaultKind wire names ("nan", "spike", "trunc", "error"), shared by the
/// --inject flag and the serve protocol's inject entries.
const char* faultKindName(FaultKind kind);
bool faultKindFromName(std::string_view name, FaultKind* out);

/// Parses an --inject spec, "site=kind@tick" or "site=kind@tickxN" (N = -1:
/// every pass from `tick` on). False for an empty site, an unknown kind, a
/// negative tick, N < -1 or anything after the numbers; `spec` keeps its
/// magnitude.
bool parseFaultSpec(std::string_view arg, std::string* site, FaultSpec* spec);

}  // namespace ep
