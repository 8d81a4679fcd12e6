// ServeClient — blocking NDJSON client for the eplace_serve daemon.
//
// One client = one connection; requests on a connection are sequential
// (the protocol pairs each request line with one response line). Used by
// eplace_loadgen, the serve tests, and the repo benchmark's serve_mix.
// callRaw() sends an arbitrary byte line — the protocol fuzzer uses it to
// deliver malformed input that the typed helpers could never produce.
#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.h"
#include "util/status.h"

namespace ep::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient() { close(); }

  /// Connects, retrying until the socket accepts or `timeoutSeconds`
  /// passes (covers the race against a daemon that is still binding).
  Status connect(const std::string& socketPath, double timeoutSeconds = 5.0);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// One request -> one response. kIo on transport loss, kTimeout when no
  /// response line arrives in time.
  StatusOr<JsonValue> call(const JsonValue& request,
                           double timeoutSeconds = 60.0);
  /// Sends `line` verbatim (newline appended) and returns the raw response
  /// line. For protocol tests; does not interpret the response.
  StatusOr<std::string> callRaw(const std::string& line,
                                double timeoutSeconds = 60.0);
  /// Reads one already-in-flight line (watch event streams).
  StatusOr<std::string> readLine(double timeoutSeconds = 60.0);

  // Typed conveniences (each = one call()).
  Status ping();
  StatusOr<std::uint64_t> submit(const JobSpec& spec);
  Status cancel(std::uint64_t id);
  /// Blocks until the job is terminal; daemon-side wait + client timeout.
  StatusOr<JobOutcome> wait(std::uint64_t id, double timeoutSeconds = 600.0);
  StatusOr<JsonValue> stats();
  Status shutdownDaemon();

 private:
  int fd_ = -1;
  std::string rxBuf_;
};

}  // namespace ep::serve
