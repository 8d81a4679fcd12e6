#include "util/csv.h"

#include <unistd.h>

namespace ep {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header,
                     const LogSink& log)
    : log_(log),
      out_(std::fopen(path.c_str(), "w")),
      path_(path),
      columns_(header.size()) {
  if (out_ == nullptr) {
    log_.warn("CsvWriter: cannot open %s", path.c_str());
    return;
  }
  row(header);
}

CsvWriter::~CsvWriter() {
  if (out_ == nullptr) return;
  // A trace that could not be made durable is exactly the artifact someone
  // will trust after a crash — say so instead of closing silently.
  if (std::fflush(out_) != 0 || ::fsync(fileno(out_)) != 0) {
    log_.warn("CsvWriter: could not sync %s on close; trace may be incomplete",
              path_.c_str());
  }
  std::fclose(out_);
}

bool CsvWriter::writable() {
  if (out_ != nullptr && !failed_ && std::ferror(out_) == 0) return true;
  if (!warnedDrop_) {
    warnedDrop_ = true;
    log_.warn("CsvWriter: %s is not writable, dropping all rows",
              path_.c_str());
  }
  return false;
}

void CsvWriter::endRow() {
  if (std::fputc('\n', out_) == EOF || std::fflush(out_) != 0) {
    failed_ = true;  // writable() warns once on the next row
  }
}

void CsvWriter::row(const std::vector<double>& cells) {
  if (!writable()) return;
  if (cells.size() != columns_) {
    log_.warn("CsvWriter: row has %zu cells, header has %zu", cells.size(),
              columns_);
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (std::fprintf(out_, "%s%.6g", i ? "," : "", cells[i]) < 0) {
      failed_ = true;
    }
  }
  endRow();
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (!writable()) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (std::fprintf(out_, "%s%s", i ? "," : "", cells[i].c_str()) < 0) {
      failed_ = true;
    }
  }
  endRow();
}

}  // namespace ep
