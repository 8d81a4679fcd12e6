// Bookshelf (UCLA / ISPD contest) format reader and writer.
//
// Supports the subset the ISPD 2005/2006 and MMS suites use:
//   .aux    file list,   .nodes  objects (+terminal flag),
//   .nets   hyperedges with pin offsets from node centers,
//   .pl     placements (+/FIXED),      .scl  core rows,
//   .wts    net weights (optional).
//
// The paper's benchmarks are distributed in exactly this format, so the
// genuine circuits can be run through this repo unmodified; the bundled
// experiments use the synthetic generator (see src/gen) which round-trips
// through this module in the tests.
//
// All failures come back as a typed ep::Status — kIo for unopenable files,
// kInvalidInput for malformed content — with "file:line:" locations on
// parse errors. Truncated files are detected against the declared
// NumNodes/NumNets/NumPins/NetDegree counts; a corrupt file never crashes
// the reader.
//
// The reader is a streaming two-pass front-end (docs/SCALING.md): a cheap
// counting pass (scanBookshelfCounts — declared header counts when present,
// a line count otherwise) feeds a capacity plan (model/capacity.h) that is
// charged against the RuntimeContext MemoryBudget *before* any model array
// is sized, then the fill pass assembles into exactly-reserved vectors. On
// 100k+ instances peak memory is O(cells) with zero vector regrowth, and a
// design that cannot fit a budgeted job is rejected up front with a typed
// kResourceExhausted.
#pragma once

#include <string>

#include "model/netlist.h"
#include "util/status.h"

namespace ep {

class RuntimeContext;

/// Instance counts discovered by the counting pass. `declared` is true
/// when every count came from a header (NumNodes/NumNets/NumPins/NumRows);
/// false means at least one was recovered by counting lines (header-less
/// or nonstandard file). Counts are advisory for reservation — the fill
/// pass still validates the declared counts against reality.
struct BookshelfCounts {
  std::size_t objects = 0;
  std::size_t nets = 0;
  std::size_t pins = 0;
  std::size_t rows = 0;
  bool declared = false;
};

/// Counting pass: resolves the .aux file list and reads just far enough
/// into .nodes/.nets/.scl to learn the instance counts (header-less files
/// are counted line by line). Never touches the fault injector — the
/// durable-I/O fault sites fire only on the fill pass — and allocates O(1)
/// beyond a line buffer. kIo when a listed file cannot be opened.
/// Serving uses this for capacity-estimated admission of Bookshelf jobs.
StatusOr<BookshelfCounts> scanBookshelfCounts(const std::string& auxPath,
                                              RuntimeContext& ctx);

/// Reads `<aux>` (path to the .aux file) and fills `db` (finalized).
/// Object kinds: terminals with row-sized height stay kIo, larger ones are
/// kMacro; movable objects taller than one row are kMacro.
/// Runs the counting pass first and charges the resulting capacity plan
/// against `ctx`'s MemoryBudget for the duration of assembly
/// (kResourceExhausted when the instance cannot fit a budgeted job;
/// kInvalidInput when counts exceed the 32-bit index space).
/// `ctx` supplies the log sink and the "bookshelf.line" fault site.
Status readBookshelf(const std::string& auxPath, PlacementDB& db,
                     RuntimeContext& ctx);

/// Writes db as `<dir>/<base>.{aux,nodes,nets,pl,scl,wts}`. kIo names the
/// file that could not be written.
Status writeBookshelf(const std::string& dir, const std::string& base,
                      const PlacementDB& db);

}  // namespace ep
