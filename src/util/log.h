// Leveled logging with isolated sinks. The placer is a library first:
// logging defaults to warnings only and callers (examples, benches,
// sessions) opt into verbosity.
//
// A LogSink is one destination with its own minimum level, an optional
// per-session prefix (so concurrent PlacerSessions in one process emit
// distinguishable, non-interleaved lines) and wall-clock timestamps. Each
// RuntimeContext owns one, and library code logs through the context it
// was handed: ctx.log().info(...). There is no process-wide sink and no
// process-wide level; a caller raises verbosity with
// ctx.log().setLevel(...) on its own context.
//
// printf-style formatting (GCC 12 on this toolchain lacks <format>). Each
// line is emitted with a single fprintf call, so concurrent sessions never
// interleave characters mid-line.
#pragma once

#include <atomic>
#include <cstdarg>
#include <string>
#include <string_view>

namespace ep {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// "debug" / "info" / "warn" / "error" / "off".
const char* logLevelName(LogLevel level);

/// Parses a --log-level style name ("debug", "info", "warn", "error",
/// "off"); returns false (and leaves *out alone) on anything else.
bool parseLogLevel(std::string_view text, LogLevel* out);

/// One logging destination (stderr) with its own level filter, prefix and
/// timestamp switch. Level and timestamps are atomics so worker threads may
/// log while another thread adjusts verbosity; the prefix must be set
/// during single-threaded setup (session construction) only.
class LogSink {
 public:
  LogSink() = default;
  explicit LogSink(std::string prefix, LogLevel level = LogLevel::kWarn)
      : level_(level), prefix_(std::move(prefix)) {}
  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;

  void setLevel(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  void setTimestamps(bool on) {
    timestamps_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool timestamps() const {
    return timestamps_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool enabled(LogLevel level) const {
    return level >= this->level() && level != LogLevel::kOff;
  }

  /// One line: "[HH:MM:SS.mmm] [prefix] [level] message".
  void write(LogLevel level, std::string_view msg) const;
  void vlogf(LogLevel level, const char* fmt, va_list args) const;

  // printf-style per-level entry points; format errors caught at compile
  // time.
  void debug(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void info(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void warn(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void error(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));

 private:
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::atomic<bool> timestamps_{true};
  std::string prefix_;
};

}  // namespace ep
