// ep::RunRecord — one structured, machine-readable record per placement.
//
// The paper's headline claims are quantitative (HPWL, overflow trajectory,
// per-stage runtime), so every supervised run emits one JSON document
// capturing what actually happened: netlist fingerprint, seed, thread
// count, per-stage {wall_ms, iterations, HPWL, overflow, retries,
// recoveries, rollbacks, snapshots}, final quality metrics, the context
// stats-registry dump, arena growth events and peak accounted bytes.
// Records are written durably via ep::io (CLI --record-out), attached to
// serve job outcomes, and accumulated under bench_results/ by bench and
// loadgen runs.
//
// On top of the record sits the regression gate (compareRunRecords +
// tools/eplace_regress + ctest -L regression): deterministic fields —
// HPWL bits, iterations, overflow, retry/rollback counts at fixed
// seed/threads, which are bit-stable by the PR 3 determinism contract —
// must match a committed baseline exactly; wall-clock fields are compared
// as the median of N candidate runs against an upper percentage band, so
// scheduler noise cannot flake the gate while a real 2x slowdown fails it.
// Resource figures (peak_bytes, arena growth) are recorded but not gated;
// they move legitimately with unrelated refactors.
//
// This header is layer-pure: util only (jsonlite + io + status). The
// builder that knows about PlacementDB/FlowResult lives in the eplace
// layer (supervisor.h: buildRunRecord).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/jsonlite.h"
#include "util/status.h"

namespace ep {

class FaultInjector;

/// IEEE-754 bit pattern as "0x%016x" — the exact-compare form for doubles.
/// JSON numbers round-trip through %.17g, but the hex form makes bit
/// equality auditable in diffs and independent of printf/strtod quality.
std::string hexBits64(std::uint64_t bits);
bool parseHexBits64(const std::string& s, std::uint64_t* out);

/// A double's bit pattern, for the *_bits record fields.
std::uint64_t doubleBits(double v);

struct StageRecord {
  std::string stage;            ///< "mIP", "mGP", "mLG", "cGP", "cDP"
  bool ran = false;             ///< false: skipped (kept for schema shape)
  double wallMs = 0.0;          ///< stage wall time, milliseconds (noisy)
  long iterations = 0;          ///< optimizer iterations (0 for non-GP)
  double hpwl = 0.0;            ///< HPWL after the stage
  std::uint64_t hpwlBits = 0;   ///< bit pattern of `hpwl`
  double overflow = 0.0;        ///< density overflow after the stage
  int retries = 0;              ///< supervisor re-attempts (attempts - 1)
  int recoveries = 0;           ///< in-stage numerical recoveries
  int rollbacks = 0;            ///< result-discard restores
  /// Snapshots whose cursor is this stage: the boundary snapshot that leads
  /// into it and any taken inside it. The last boundary snapshot (cursor
  /// "done") is on no row.
  int snapshots = 0;
};

struct RunRecord {
  static constexpr int kSchemaVersion = 1;

  int schemaVersion = kSchemaVersion;
  std::string name;             ///< design / job name
  std::uint64_t fingerprint = 0;  ///< netlistFingerprint() of the input
  std::uint64_t seed = 0;       ///< written as a JSON number (lossy > 2^53)
  int threads = 1;
  bool supervised = false;
  std::vector<StageRecord> stages;

  // Final quality.
  double finalHpwl = 0.0;
  std::uint64_t finalHpwlBits = 0;
  double finalScaledHpwl = 0.0;
  double finalOverflow = 0.0;
  bool legal = false;

  // Wall clock + resources (recorded, not gated).
  double totalSeconds = 0.0;
  std::uint64_t peakBytes = 0;
  long arenaGrowthEvents = 0;
  int snapshotsWritten = 0;

  std::string status = "Ok";    ///< StatusCode wire name
  /// Context stats-registry dump (sorted by key; deterministic order).
  std::vector<std::pair<std::string, double>> stats;
};

/// Serialization. toJson always emits every schema field (skipped stages
/// included), so fromJson can be strict: a missing, wrong-kind or unknown
/// field is a typed kInvalidInput naming the field — schema drift is caught
/// at parse time, before the gate ever compares values. `schema_version` is
/// checked before any other key.
JsonValue runRecordToJson(const RunRecord& rec);
Status runRecordFromJson(const JsonValue& v, RunRecord* out);
std::string writeRunRecord(const RunRecord& rec);
StatusOr<RunRecord> parseRunRecord(std::string_view text);

/// Durable file forms (tmp + fsync + rename via ep::io).
Status writeRunRecordFile(const std::string& path, const RunRecord& rec,
                          FaultInjector* faults = nullptr);
StatusOr<RunRecord> readRunRecordFile(const std::string& path);

/// Retention policy for accumulated record directories (bench_results/):
/// keeps at most `maxFiles` files named `<tool>_*.json` in `dir`, deleting
/// the excess oldest-first. "Oldest" is the lexicographically smallest
/// file *name* — the bench tools embed sortable keys (thread count, sweep
/// size) in the name — never filesystem mtime, so rotation is
/// deterministic across machines and clock skew. Files of other tools are
/// untouched. Returns the number of files removed; a missing `dir` or
/// `maxFiles == 0` (unlimited) is a no-op.
std::size_t pruneRecordFiles(const std::string& dir, const std::string& tool,
                             std::size_t maxFiles);

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

struct RegressPolicy {
  /// Upper band for wall-clock fields: median(candidates) must be
  /// <= baseline * (1 + wallBandFrac). One-sided — getting faster passes.
  double wallBandFrac = 0.50;
  /// Compare wall-clock fields at all. Off for cross-machine runs where
  /// only the deterministic quality fields are meaningful.
  bool checkWall = true;
  /// Wall measurements below this floor (ms) are pure scheduler noise and
  /// are never gated.
  double minWallMs = 20.0;
};

struct RegressDiff {
  std::string field;      ///< e.g. "stages[mGP].hpwl_bits"
  std::string baseline;   ///< rendered baseline value
  std::string candidate;  ///< rendered candidate value
};

struct RegressResult {
  bool pass = true;
  std::vector<RegressDiff> diffs;
  /// Human-readable field-level report, one line per diff.
  [[nodiscard]] std::string summary() const;
};

/// Diffs candidate records against a baseline. Every candidate's
/// preconditions (fingerprint, seed, threads, schema version, stage list)
/// must match the baseline's, or the result is an immediate "incomparable"
/// failure. Deterministic fields must be identical across *all* candidates
/// and equal to the baseline; wall-clock fields compare median(candidates)
/// against the banded baseline. Each field is compared in the form the
/// JSON writer emits, so a record and its parsed copy always agree. Which
/// field falls in which tier is listed next to its key in run_record.cpp.
/// `candidates` must be non-empty.
RegressResult compareRunRecords(const RunRecord& baseline,
                                const std::vector<RunRecord>& candidates,
                                const RegressPolicy& policy = {});

// ---------------------------------------------------------------------------
// Regeneration delta table
// ---------------------------------------------------------------------------

/// One value of a regenerated file (a golden or a baseline): before and
/// after the regeneration.
struct DeltaField {
  std::string name;
  double before = 0.0;
  double after = 0.0;
};

/// The final HPWL and every stage's iterations, `before` against `after`.
/// Stages are matched by name; a stage in only one record is left out.
std::vector<DeltaField> runRecordDeltaFields(const RunRecord& before,
                                             const RunRecord& after);

/// Every numeric member of two flat JSON objects (the tests/goldens
/// files), matched by key, in `before`'s order. kInvalidInput when either
/// text is not a JSON object.
StatusOr<std::vector<DeltaField>> jsonDeltaFields(std::string_view before,
                                                  std::string_view after);

/// The markdown header and separator lines for rows of `fields`: a label
/// column, then one column per field name.
std::string deltaTableHeader(const std::vector<DeltaField>& fields);

/// One markdown row. A cell reads `before -> after (+x.xxx%)`, or
/// `value (=)` when the value's bits did not change, so a table of
/// unchanged files holds no `->`.
std::string deltaTableRow(const std::string& label,
                          const std::vector<DeltaField>& fields);

}  // namespace ep
