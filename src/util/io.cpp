#include "util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/fault_injector.h"
#include "util/log.h"

namespace ep::io {

namespace {

constexpr const char* kNoSpaceTag = "(ENOSPC)";

/// Bounded deterministic retry for transient storage errors: attempt k
/// (0-based) sleeps kBackoffMicros << (k-1) first, so a failing write waits
/// 100us then 200us — enough to step over a transient EIO in tests and
/// real life without turning a dead disk into a hang.
constexpr int kWriteAttempts = 3;
constexpr int kBackoffMicros = 100;

Status ioError(const std::string& what, const std::string& path, int err) {
  return Status::ioError(what + " " + path + ": " + std::strerror(err) +
                         (err == ENOSPC || err == EDQUOT
                              ? std::string(" ") + kNoSpaceTag
                              : std::string()));
}

/// Checks the error-kind fault sites for one attempt. Returns 0 when no
/// site fires, otherwise the errno the attempt should fail with.
/// `stage` selects which site is consulted.
int injectedErrno(FaultInjector* faults, const char* site) {
  if (faults == nullptr || !faults->active()) return 0;
  const FaultSpec* f = faults->fire(site);
  if (f == nullptr) return 0;
  return std::strcmp(site, "io.enospc") == 0 ? ENOSPC : EIO;
}

/// One full tmp+write+fsync+rename attempt. Returns OK or a typed kIo
/// status; guarantees the tmp file is gone on failure.
Status writeOnce(const std::string& path, const void* data, std::size_t n,
                 FaultInjector* faults) {
  // "io.enospc" fails the attempt before any bytes move, modelling a full
  // disk: persistent, recognized by isNoSpace(), never retried.
  if (const int err = injectedErrno(faults, "io.enospc")) {
    return ioError("cannot write", path, err);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return ioError("cannot create", tmp, errno);

  bool wrote = true;
  int err = 0;
  if (const int ie = injectedErrno(faults, "io.write")) {
    wrote = false;
    err = ie;  // synthetic short write
  } else if (std::fwrite(data, 1, n, out) != n) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (wrote && std::fflush(out) != 0) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (wrote) {
    if (const int ie = injectedErrno(faults, "io.fsync")) {
      wrote = false;
      err = ie;
    } else if (::fsync(fileno(out)) != 0) {
      wrote = false;
      err = errno != 0 ? errno : EIO;
    }
  }
  if (std::fclose(out) != 0 && wrote) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (!wrote) {
    std::remove(tmp.c_str());
    return ioError("cannot write", tmp, err);
  }

  if (const int ie = injectedErrno(faults, "io.rename")) {
    std::remove(tmp.c_str());
    return ioError("cannot rename into place", path, ie);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int renameErr = errno != 0 ? errno : EIO;
    std::remove(tmp.c_str());
    return ioError("cannot rename into place", path, renameErr);
  }
  syncParentDir(path);
  return {};
}

/// Parses the decimal digits s[begin, end) into *out. False when a
/// character is not a digit or the value would exceed `maxNumber` (checked
/// before each multiply-add, so nothing ever wraps).
bool parseDecimal(const std::string& s, std::size_t begin, std::size_t end,
                  std::uint64_t maxNumber, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    const auto digit = static_cast<std::uint64_t>(s[i] - '0');
    if (digit > maxNumber || v > (maxNumber - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace

Status writeFileDurably(const std::string& path, const void* data,
                        std::size_t n, FaultInjector* faults) {
  Status last;
  for (int attempt = 0; attempt < kWriteAttempts; ++attempt) {
    if (attempt > 0) {
      // Deterministic exponential backoff: 1x, 2x, 4x, ... the base.
      ::usleep(static_cast<useconds_t>(kBackoffMicros) << (attempt - 1));
      if (faults != nullptr && faults->logSink() != nullptr) {
        faults->logSink()->debug("io: retrying write of %s (attempt %d/%d): %s",
                                 path.c_str(), attempt + 1, kWriteAttempts,
                                 last.message().c_str());
      }
    }
    last = writeOnce(path, data, n, faults);
    if (last.ok()) return last;
    // A full disk will not empty itself inside our backoff window;
    // surface it immediately so the caller can degrade.
    if (isNoSpace(last)) return last;
  }
  return last;
}

Status writeFileDurably(const std::string& path, const std::string& text,
                        FaultInjector* faults) {
  return writeFileDurably(path, text.data(), text.size(), faults);
}

StatusOr<std::string> readFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return ioError("cannot open", path, errno);
  std::string out;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) out.append(buf, n);
  const int err = std::ferror(in) != 0 ? (errno != 0 ? errno : EIO) : 0;
  std::fclose(in);
  if (err != 0) return ioError("cannot read", path, err);
  return out;
}

std::vector<NumberedFile> listNumberedFiles(const std::string& dir,
                                            const std::string& prefix,
                                            const std::string& suffix,
                                            std::uint64_t maxNumber) {
  std::vector<NumberedFile> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::uint64_t number = 0;
    if (parseDecimal(name, prefix.size(), name.size() - suffix.size(),
                     maxNumber, &number)) {
      files.push_back({number, std::move(name)});
    }
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.number != b.number ? a.number < b.number : a.name < b.name;
  });
  return files;
}

void syncParentDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

bool isNoSpace(const Status& s) {
  return s.code() == StatusCode::kIo &&
         s.message().find(kNoSpaceTag) != std::string::npos;
}

}  // namespace ep::io
