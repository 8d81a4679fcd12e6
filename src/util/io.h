// ep::io — checked, fault-injectable file I/O.
//
// Every durability guarantee the repo advertises (journal-before-ack,
// CRC snapshots, fsync'd CSV traces, stats dumps) bottoms out in the same
// recipe: write a tmp file, flush, fsync, rename into place, fsync the
// parent directory. This layer owns that recipe once, with three
// properties the inlined copies lacked:
//
//   * every syscall result is checked and surfaces as a typed Status
//     (kIo) naming the path and errno — no silent truncation;
//   * transient failures (EIO-class write/fsync/rename errors) are
//     retried a bounded, deterministic number of times with exponential
//     backoff (3 attempts, 100us then 200us apart; constants in io.cpp);
//     persistent no-space failures are recognized as such (isNoSpace)
//     and never retried, so callers can degrade instead of spinning
//     against a full disk;
//   * four FaultInjector sites make every failure mode reachable from
//     tests without touching the filesystem:
//       "io.write"   fwrite reports a short write (synthetic EIO)
//       "io.fsync"   fsync fails (synthetic EIO)
//       "io.rename"  rename into place fails (synthetic EIO)
//       "io.enospc"  the attempt fails with ENOSPC — persistent, not
//                    retried, recognized by isNoSpace()
//     All four use FaultKind::kError (the site returns a typed error;
//     no data is corrupted). A count=1 spec fails exactly one attempt,
//     proving the retry path; count=-1 exhausts the retries and yields
//     the final typed kIo.
//
// The read side lives here too: readFile() is the one checked whole-file
// read, and listNumberedFiles() the one parser for the "<prefix><n><suffix>"
// file names of the snapshot ring (eplace/checkpoint) and the job journal
// (serve/journal).
//
// Adopters: snapshot.cpp, run_record.cpp, serve/journal.cpp, the daemon's
// stats/result writers, and CsvWriter's error surfacing. See
// docs/ROBUSTNESS.md, "Storage-fault containment".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ep {

class FaultInjector;

namespace io {

/// Atomically and durably replaces `path` with `n` bytes: tmp file +
/// checked fwrite + fflush + fsync + rename + parent-directory fsync.
/// Transient failures are retried (see above); no-space failures are not.
/// On any failure the tmp file is removed and `path` is untouched (the
/// previous contents, if any, survive). A retry is logged at debug level
/// through `faults`' sink, when it has one.
Status writeFileDurably(const std::string& path, const void* data,
                        std::size_t n, FaultInjector* faults = nullptr);

/// Convenience overload for text payloads (journal/result/stats JSON).
Status writeFileDurably(const std::string& path, const std::string& text,
                        FaultInjector* faults = nullptr);

/// The whole contents of `path`. kIo when it cannot be opened or a read
/// fails part-way (never a silently truncated buffer).
StatusOr<std::string> readFile(const std::string& path);

/// A directory entry named <prefix><decimal number><suffix>.
struct NumberedFile {
  std::uint64_t number = 0;
  std::string name;  ///< file name, without the directory
};

/// The entries of `dir` named <prefix><digits><suffix>, ascending by
/// number. A name whose digits are empty, or whose value exceeds
/// `maxNumber`, is not listed: an out-of-range file belongs to nobody and
/// is never parsed into (or pruned as) somebody else's number. A missing
/// or unreadable directory lists nothing.
std::vector<NumberedFile> listNumberedFiles(const std::string& dir,
                                            const std::string& prefix,
                                            const std::string& suffix,
                                            std::uint64_t maxNumber);

/// fsync the directory containing `path` so a completed rename survives
/// power loss. Best-effort by design: some filesystems reject directory
/// fsync, and the rename itself already happened.
void syncParentDir(const std::string& path);

/// True when `s` is the persistent out-of-space class of I/O failure
/// (ENOSPC/EDQUOT, or the injected "io.enospc" fault). The supervisor uses
/// this to stop checkpointing instead of retrying forever.
[[nodiscard]] bool isNoSpace(const Status& s);

}  // namespace io
}  // namespace ep
