#include "util/fault_injector.h"

#include <charconv>
#include <limits>

#include "util/log.h"

namespace ep {

void FaultInjector::arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = Armed{spec, 0, 0};
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
  rng_.reseed(0xfa17ED5EEDULL);
}

void FaultInjector::reseed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.reseed(seed);
}

const FaultSpec* FaultInjector::fire(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return nullptr;
  Armed& a = it->second;
  const long tick = a.tick++;
  if (tick < a.spec.atTick) return nullptr;
  if (a.spec.count >= 0 && a.fired >= a.spec.count) return nullptr;
  ++a.fired;
  if (sink_ != nullptr) {
    sink_->debug("fault injector: %s fires at pass %ld", site.c_str(), tick);
  }
  return &a.spec;
}

void FaultInjector::corrupt(std::span<double> data, const FaultSpec& spec) {
  if (data.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx =
      static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(data.size())));
  switch (spec.kind) {
    case FaultKind::kNaN:
      data[idx] = std::numeric_limits<double>::quiet_NaN();
      break;
    case FaultKind::kSpike:
      data[idx] = (data[idx] == 0.0 ? 1.0 : data[idx]) * spec.magnitude;
      break;
    case FaultKind::kTruncate:
    case FaultKind::kError:
      break;  // stream/error-site semantics; nothing to corrupt in a buffer
  }
}

void FaultInjector::corruptBytes(std::span<std::uint8_t> data,
                                 const FaultSpec& spec) {
  if (data.empty() || spec.kind == FaultKind::kTruncate ||
      spec.kind == FaultKind::kError) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = static_cast<std::size_t>(
      rng_.below(static_cast<std::uint64_t>(data.size())));
  data[idx] ^= static_cast<std::uint8_t>(1U << rng_.below(8));
}

long FaultInjector::fireCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::span<const char* const> knownFaultSites() {
  static constexpr const char* kSites[] = {
      "nesterov.grad",     "fft.forward",   "bookshelf.line",
      "legalize.displace", "detail.swap",   "snapshot.write",
      "parallel.task",     "serve.request", "serve.accept",
      "io.write",          "io.fsync",      "io.rename",
      "io.enospc",
  };
  return kSites;
}

namespace {

// Indexed by FaultKind.
constexpr const char* kKindNames[] = {"nan", "spike", "trunc", "error"};

/// The whole of `text` as a number, or false.
template <class N>
bool parseWhole(std::string_view text, N* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const char* faultKindName(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool faultKindFromName(std::string_view name, FaultKind* out) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) {
      *out = static_cast<FaultKind>(i);
      return true;
    }
  }
  return false;
}

bool parseFaultSpec(std::string_view arg, std::string* site, FaultSpec* spec) {
  const auto eq = arg.find('=');
  const auto at = arg.find('@');
  if (eq == 0 || eq == std::string_view::npos ||
      at == std::string_view::npos || at < eq) {
    return false;
  }
  FaultSpec parsed = *spec;
  if (!faultKindFromName(arg.substr(eq + 1, at - eq - 1), &parsed.kind)) {
    return false;
  }
  std::string_view tick = arg.substr(at + 1);
  const auto x = tick.find('x');
  if (x != std::string_view::npos) {
    if (!parseWhole(tick.substr(x + 1), &parsed.count) || parsed.count < -1) {
      return false;
    }
    tick = tick.substr(0, x);
  }
  if (!parseWhole(tick, &parsed.atTick) || parsed.atTick < 0) return false;
  *site = std::string(arg.substr(0, eq));
  *spec = parsed;
  return true;
}

}  // namespace ep
