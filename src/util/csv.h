// Tiny CSV emitter. Benches dump per-iteration traces (Fig. 2 / Fig. 3
// series) as CSV so they can be re-plotted outside the repo.
//
// Traces are exactly the artifact one wants to inspect after a run died, so
// the writer is crash-durable: every row is flushed to the OS as it is
// written (a SIGKILL mid-run loses at most the row being formatted), and
// the destructor fsyncs before closing so a clean exit survives power loss.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "util/log.h"

namespace ep {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Check ok() before
  /// writing rows; construction never throws. Failures are warned about
  /// through `log` (typically the caller's ctx.log()), which must outlive
  /// the writer.
  CsvWriter(const std::string& path, const std::vector<std::string>& header,
            const LogSink& log);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  [[nodiscard]] bool ok() const { return out_ != nullptr; }

  /// True while the stream has accepted every byte so far. Goes false —
  /// stickily — on the first failed write/flush, so a caller can tell a
  /// complete trace from a silently truncated one even though row() never
  /// returns a status.
  [[nodiscard]] bool healthy() const { return out_ != nullptr && !failed_; }

  /// Writes one row; numeric cells are formatted with %.6g. Rows written
  /// while the stream is bad are dropped, with a single warning naming the
  /// path (not one per row — traces can be hundreds of rows long). Each row
  /// is flushed so the file is complete up to the last row even after a
  /// SIGKILL.
  void row(const std::vector<double>& cells);
  void row(const std::vector<std::string>& cells);

 private:
  bool writable();
  void endRow();

  const LogSink& log_;
  std::FILE* out_ = nullptr;
  std::string path_;
  std::size_t columns_ = 0;
  bool warnedDrop_ = false;
  bool failed_ = false;  // sticky: a write/flush/fsync error occurred
};

}  // namespace ep
