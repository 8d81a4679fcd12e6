#include "util/log.h"

#include <cstdio>
#include <ctime>

#include <chrono>

namespace ep {
namespace {

// Formats "HH:MM:SS.mmm" (local time) into buf; returns buf.
const char* formatTimestamp(char (&buf)[16]) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  localtime_r(&secs, &tm);
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%03d", tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

}  // namespace

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

bool parseLogLevel(std::string_view text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn" || text == "warning") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else if (text == "off" || text == "none") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void LogSink::write(LogLevel level, std::string_view msg) const {
  if (!enabled(level)) return;
  char ts[16] = "";
  const bool withTs = timestamps();
  if (withTs) formatTimestamp(ts);
  // Single fprintf per line so concurrent sessions never interleave
  // characters mid-line.
  if (withTs && !prefix_.empty()) {
    std::fprintf(stderr, "[%s] [%s] [%s] %.*s\n", ts, prefix_.c_str(),
                 logLevelName(level), static_cast<int>(msg.size()),
                 msg.data());
  } else if (withTs) {
    std::fprintf(stderr, "[%s] [%s] %.*s\n", ts, logLevelName(level),
                 static_cast<int>(msg.size()), msg.data());
  } else if (!prefix_.empty()) {
    std::fprintf(stderr, "[%s] [%s] %.*s\n", prefix_.c_str(),
                 logLevelName(level), static_cast<int>(msg.size()),
                 msg.data());
  } else {
    std::fprintf(stderr, "[%s] %.*s\n", logLevelName(level),
                 static_cast<int>(msg.size()), msg.data());
  }
}

void LogSink::vlogf(LogLevel level, const char* fmt, va_list args) const {
  if (!enabled(level)) return;
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  write(level, buf);
}

#define EP_DEFINE_SINK_LOG(Name, Level)            \
  void LogSink::Name(const char* fmt, ...) const { \
    va_list args;                                  \
    va_start(args, fmt);                           \
    vlogf(Level, fmt, args);                       \
    va_end(args);                                  \
  }

EP_DEFINE_SINK_LOG(debug, LogLevel::kDebug)
EP_DEFINE_SINK_LOG(info, LogLevel::kInfo)
EP_DEFINE_SINK_LOG(warn, LogLevel::kWarn)
EP_DEFINE_SINK_LOG(error, LogLevel::kError)

#undef EP_DEFINE_SINK_LOG

}  // namespace ep
