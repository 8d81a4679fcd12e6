#include "util/run_record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/io.h"

namespace ep {

std::string hexBits64(std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

bool parseHexBits64(const std::string& s, std::uint64_t* out) {
  // Only the canonical writer form is accepted: "0x" + exactly 16 hex
  // digits. Anything shorter is ambiguous about which field got truncated.
  if (s.size() != 18 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    std::uint64_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

std::uint64_t doubleBits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bitsToDouble(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

namespace {

JsonValue num(double v) { return JsonValue::number(v); }

/// Strict-object helper: every expected key must be present and no other
/// key may appear, so a renamed/dropped/added field is a parse error (the
/// schema-drift arm of the regression gate).
Status checkKeys(const JsonValue& v, const char* what,
                 const std::vector<std::string_view>& expected) {
  for (const std::string_view key : expected) {
    if (v.find(key) == nullptr) {
      return Status::invalidInput(std::string(what) + ": missing field \"" +
                                  std::string(key) + "\"");
    }
  }
  for (const auto& [k, unused] : v.members()) {
    (void)unused;
    if (std::find(expected.begin(), expected.end(), k) == expected.end()) {
      return Status::invalidInput(std::string(what) + ": unknown field \"" +
                                  k + "\"");
    }
  }
  return Status::okStatus();
}

Status needNumber(const JsonValue& v, const char* what, std::string_view key,
                  double* out) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->isNumber()) {
    return Status::invalidInput(std::string(what) + "." + std::string(key) +
                                " must be a number");
  }
  *out = f->asNumber();
  return Status::okStatus();
}

Status needBool(const JsonValue& v, const char* what, std::string_view key,
                bool* out) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->isBool()) {
    return Status::invalidInput(std::string(what) + "." + std::string(key) +
                                " must be a bool");
  }
  *out = f->asBool();
  return Status::okStatus();
}

Status needString(const JsonValue& v, const char* what, std::string_view key,
                  std::string* out) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->isString()) {
    return Status::invalidInput(std::string(what) + "." + std::string(key) +
                                " must be a string");
  }
  *out = f->asString();
  return Status::okStatus();
}

Status needBits(const JsonValue& v, const char* what, std::string_view key,
                std::uint64_t* out) {
  std::string s;
  Status st = needString(v, what, key, &s);
  if (!st.ok()) return st;
  if (!parseHexBits64(s, out)) {
    return Status::invalidInput(std::string(what) + "." + std::string(key) +
                                " is not a 0x… bit pattern");
  }
  return Status::okStatus();
}

JsonValue stageToJson(const StageRecord& s) {
  JsonValue v = JsonValue::object();
  v.set("stage", JsonValue::str(s.stage));
  v.set("ran", JsonValue::boolean(s.ran));
  v.set("wall_ms", num(s.wallMs));
  v.set("iterations", num(static_cast<double>(s.iterations)));
  v.set("hpwl", num(s.hpwl));
  v.set("hpwl_bits", JsonValue::str(hexBits64(s.hpwlBits)));
  v.set("overflow", num(s.overflow));
  v.set("retries", num(s.retries));
  v.set("recoveries", num(s.recoveries));
  v.set("rollbacks", num(s.rollbacks));
  v.set("snapshots", num(s.snapshots));
  return v;
}

Status stageFromJson(const JsonValue& v, StageRecord* out) {
  if (!v.isObject()) {
    return Status::invalidInput("record.stages entry must be an object");
  }
  Status st = checkKeys(v, "record.stage",
                        {"stage", "ran", "wall_ms", "iterations", "hpwl",
                         "hpwl_bits", "overflow", "retries", "recoveries",
                         "rollbacks", "snapshots"});
  if (!st.ok()) return st;
  *out = StageRecord{};
  double d = 0;
  if (!(st = needString(v, "stage", "stage", &out->stage)).ok()) return st;
  if (!(st = needBool(v, "stage", "ran", &out->ran)).ok()) return st;
  if (!(st = needNumber(v, "stage", "wall_ms", &out->wallMs)).ok()) return st;
  if (!(st = needNumber(v, "stage", "iterations", &d)).ok()) return st;
  out->iterations = static_cast<long>(d);
  if (!(st = needNumber(v, "stage", "hpwl", &out->hpwl)).ok()) return st;
  if (!(st = needBits(v, "stage", "hpwl_bits", &out->hpwlBits)).ok()) {
    return st;
  }
  if (!(st = needNumber(v, "stage", "overflow", &out->overflow)).ok()) {
    return st;
  }
  if (!(st = needNumber(v, "stage", "retries", &d)).ok()) return st;
  out->retries = static_cast<int>(d);
  if (!(st = needNumber(v, "stage", "recoveries", &d)).ok()) return st;
  out->recoveries = static_cast<int>(d);
  if (!(st = needNumber(v, "stage", "rollbacks", &d)).ok()) return st;
  out->rollbacks = static_cast<int>(d);
  if (!(st = needNumber(v, "stage", "snapshots", &d)).ok()) return st;
  out->snapshots = static_cast<int>(d);
  return Status::okStatus();
}

std::string renderNumber(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

JsonValue runRecordToJson(const RunRecord& rec) {
  JsonValue v = JsonValue::object();
  v.set("schema_version", num(rec.schemaVersion));
  v.set("name", JsonValue::str(rec.name));
  v.set("fingerprint", JsonValue::str(hexBits64(rec.fingerprint)));
  v.set("seed", num(static_cast<double>(rec.seed)));
  v.set("threads", num(rec.threads));
  v.set("supervised", JsonValue::boolean(rec.supervised));

  JsonValue stages = JsonValue::array();
  for (const StageRecord& s : rec.stages) stages.push(stageToJson(s));
  v.set("stages", std::move(stages));

  JsonValue fin = JsonValue::object();
  fin.set("hpwl", num(rec.finalHpwl));
  fin.set("hpwl_bits", JsonValue::str(hexBits64(rec.finalHpwlBits)));
  fin.set("scaled_hpwl", num(rec.finalScaledHpwl));
  fin.set("overflow", num(rec.finalOverflow));
  fin.set("legal", JsonValue::boolean(rec.legal));
  v.set("final", std::move(fin));

  JsonValue wall = JsonValue::object();
  wall.set("total_seconds", num(rec.totalSeconds));
  v.set("wall", std::move(wall));

  JsonValue res = JsonValue::object();
  res.set("peak_bytes", num(static_cast<double>(rec.peakBytes)));
  res.set("arena_growth_events", num(static_cast<double>(rec.arenaGrowthEvents)));
  res.set("snapshots_written", num(rec.snapshotsWritten));
  v.set("resources", std::move(res));

  JsonValue stats = JsonValue::object();
  for (const auto& [k, val] : rec.stats) stats.set(k, num(val));
  v.set("stats", std::move(stats));

  v.set("status", JsonValue::str(rec.status));
  return v;
}

Status runRecordFromJson(const JsonValue& v, RunRecord* out) {
  if (!v.isObject()) {
    return Status::invalidInput("record must be a JSON object");
  }
  Status st = checkKeys(v, "record",
                        {"schema_version", "name", "fingerprint", "seed",
                         "threads", "supervised", "stages", "final", "wall",
                         "resources", "stats", "status"});
  if (!st.ok()) return st;
  *out = RunRecord{};
  double d = 0;
  if (!(st = needNumber(v, "record", "schema_version", &d)).ok()) return st;
  out->schemaVersion = static_cast<int>(d);
  if (out->schemaVersion != RunRecord::kSchemaVersion) {
    return Status::invalidInput(
        "record.schema_version " + std::to_string(out->schemaVersion) +
        " unsupported (expected " + std::to_string(RunRecord::kSchemaVersion) +
        ")");
  }
  if (!(st = needString(v, "record", "name", &out->name)).ok()) return st;
  if (!(st = needBits(v, "record", "fingerprint", &out->fingerprint)).ok()) {
    return st;
  }
  if (!(st = needNumber(v, "record", "seed", &d)).ok()) return st;
  out->seed = static_cast<std::uint64_t>(d);
  if (!(st = needNumber(v, "record", "threads", &d)).ok()) return st;
  out->threads = static_cast<int>(d);
  if (!(st = needBool(v, "record", "supervised", &out->supervised)).ok()) {
    return st;
  }

  const JsonValue* stages = v.find("stages");
  if (stages == nullptr || !stages->isArray()) {
    return Status::invalidInput("record.stages must be an array");
  }
  for (const JsonValue& e : stages->items()) {
    StageRecord sr;
    st = stageFromJson(e, &sr);
    if (!st.ok()) return st;
    out->stages.push_back(std::move(sr));
  }

  const JsonValue* fin = v.find("final");
  if (fin == nullptr || !fin->isObject()) {
    return Status::invalidInput("record.final must be an object");
  }
  st = checkKeys(*fin, "record.final",
                 {"hpwl", "hpwl_bits", "scaled_hpwl", "overflow", "legal"});
  if (!st.ok()) return st;
  if (!(st = needNumber(*fin, "final", "hpwl", &out->finalHpwl)).ok()) {
    return st;
  }
  if (!(st = needBits(*fin, "final", "hpwl_bits", &out->finalHpwlBits)).ok()) {
    return st;
  }
  if (!(st = needNumber(*fin, "final", "scaled_hpwl", &out->finalScaledHpwl))
           .ok()) {
    return st;
  }
  if (!(st = needNumber(*fin, "final", "overflow", &out->finalOverflow)).ok()) {
    return st;
  }
  if (!(st = needBool(*fin, "final", "legal", &out->legal)).ok()) return st;

  const JsonValue* wall = v.find("wall");
  if (wall == nullptr || !wall->isObject()) {
    return Status::invalidInput("record.wall must be an object");
  }
  st = checkKeys(*wall, "record.wall", {"total_seconds"});
  if (!st.ok()) return st;
  if (!(st = needNumber(*wall, "wall", "total_seconds", &out->totalSeconds))
           .ok()) {
    return st;
  }

  const JsonValue* res = v.find("resources");
  if (res == nullptr || !res->isObject()) {
    return Status::invalidInput("record.resources must be an object");
  }
  st = checkKeys(*res, "record.resources",
                 {"peak_bytes", "arena_growth_events", "snapshots_written"});
  if (!st.ok()) return st;
  if (!(st = needNumber(*res, "resources", "peak_bytes", &d)).ok()) return st;
  out->peakBytes = static_cast<std::uint64_t>(d);
  if (!(st = needNumber(*res, "resources", "arena_growth_events", &d)).ok()) {
    return st;
  }
  out->arenaGrowthEvents = static_cast<long>(d);
  if (!(st = needNumber(*res, "resources", "snapshots_written", &d)).ok()) {
    return st;
  }
  out->snapshotsWritten = static_cast<int>(d);

  const JsonValue* stats = v.find("stats");
  if (stats == nullptr || !stats->isObject()) {
    return Status::invalidInput("record.stats must be an object");
  }
  for (const auto& [k, val] : stats->members()) {
    if (!val.isNumber()) {
      return Status::invalidInput("record.stats." + k + " must be a number");
    }
    out->stats.emplace_back(k, val.asNumber());
  }

  if (!(st = needString(v, "record", "status", &out->status)).ok()) return st;
  return Status::okStatus();
}

std::string writeRunRecord(const RunRecord& rec) {
  return writeJson(runRecordToJson(rec));
}

StatusOr<RunRecord> parseRunRecord(std::string_view text) {
  StatusOr<JsonValue> v = parseJson(text);
  if (!v.ok()) return v.status();
  RunRecord rec;
  const Status st = runRecordFromJson(*v, &rec);
  if (!st.ok()) return st;
  return rec;
}

Status writeRunRecordFile(const std::string& path, const RunRecord& rec,
                          FaultInjector* faults) {
  return io::writeFileDurably(path, writeRunRecord(rec) + "\n", faults);
}

StatusOr<RunRecord> readRunRecordFile(const std::string& path) {
  const StatusOr<std::string> text = io::readFile(path);
  if (!text.ok()) return text.status();
  StatusOr<RunRecord> rec = parseRunRecord(*text);
  if (!rec.ok()) {
    return Status(rec.status().code(), path + ": " + rec.status().message());
  }
  return rec;
}

std::size_t pruneRecordFiles(const std::string& dir, const std::string& tool,
                             std::size_t maxFiles) {
  if (maxFiles == 0) return 0;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;
  const std::string prefix = tool + "_";
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 5 &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  if (names.size() <= maxFiles) return 0;
  std::sort(names.begin(), names.end());
  std::size_t removed = 0;
  const std::size_t excess = names.size() - maxFiles;
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(fs::path(dir) / names[i], ec) && !ec) ++removed;
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

namespace {

struct Gate {
  const RegressPolicy& policy;
  RegressResult out;

  void diff(std::string field, std::string base, std::string cand,
            bool fatal = true) {
    if (fatal) out.pass = false;
    out.diffs.push_back(
        {std::move(field), std::move(base), std::move(cand), fatal});
  }

  /// Bit-exact double compare rendered as value plus bit pattern, so a
  /// last-ulp drift is visible in the report.
  void exactDouble(const std::string& field, double base, double cand) {
    if (doubleBits(base) == doubleBits(cand)) return;
    diff(field, renderNumber(base) + " (" + hexBits64(doubleBits(base)) + ")",
         renderNumber(cand) + " (" + hexBits64(doubleBits(cand)) + ")");
  }

  void exactInt(const std::string& field, long base, long cand) {
    if (base == cand) return;
    diff(field, std::to_string(base), std::to_string(cand));
  }

  void exactBits(const std::string& field, std::uint64_t base,
                 std::uint64_t cand) {
    if (base == cand) return;
    diff(field,
         hexBits64(base) + " (" + renderNumber(bitsToDouble(base)) + ")",
         hexBits64(cand) + " (" + renderNumber(bitsToDouble(cand)) + ")");
  }

  void exactStr(const std::string& field, const std::string& base,
                const std::string& cand) {
    if (base == cand) return;
    diff(field, base, cand);
  }

  void exactBool(const std::string& field, bool base, bool cand) {
    if (base == cand) return;
    diff(field, base ? "true" : "false", cand ? "true" : "false");
  }

  /// Wall-clock gate: median candidate against the banded baseline.
  /// One-sided (faster always passes) and floored below minWallMs.
  void wall(const std::string& field, double baseMs, double medianMs) {
    if (!policy.checkWall) return;
    if (baseMs < policy.minWallMs) return;
    const double limit = baseMs * (1.0 + policy.wallBandFrac);
    if (medianMs <= limit) return;
    char msg[96];
    std::snprintf(msg, sizeof msg, "%.3f (limit %.3f)", medianMs, limit);
    diff(field, renderNumber(baseMs), msg);
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Compares every deterministic (non-wall) field of two records. `where`
/// prefixes the field names, so the same walk serves both baseline-vs-
/// candidate and candidate-vs-candidate consistency checks.
void compareDeterministic(Gate& g, const std::string& where,
                          const RunRecord& base, const RunRecord& cand) {
  g.exactStr(where + "status", base.status, cand.status);
  g.exactBits(where + "final.hpwl_bits", base.finalHpwlBits,
              cand.finalHpwlBits);
  g.exactDouble(where + "final.scaled_hpwl", base.finalScaledHpwl,
                cand.finalScaledHpwl);
  g.exactDouble(where + "final.overflow", base.finalOverflow,
                cand.finalOverflow);
  g.exactBool(where + "final.legal", base.legal, cand.legal);
  const std::size_t n = std::min(base.stages.size(), cand.stages.size());
  for (std::size_t i = 0; i < n; ++i) {
    const StageRecord& b = base.stages[i];
    const StageRecord& c = cand.stages[i];
    const std::string p = where + "stages[" + b.stage + "].";
    g.exactBool(p + "ran", b.ran, c.ran);
    g.exactInt(p + "iterations", b.iterations, c.iterations);
    g.exactBits(p + "hpwl_bits", b.hpwlBits, c.hpwlBits);
    g.exactDouble(p + "overflow", b.overflow, c.overflow);
    g.exactInt(p + "retries", b.retries, c.retries);
    g.exactInt(p + "recoveries", b.recoveries, c.recoveries);
    g.exactInt(p + "rollbacks", b.rollbacks, c.rollbacks);
  }
}

}  // namespace

std::string RegressResult::summary() const {
  std::string s;
  if (pass) {
    s = diffs.empty() ? "PASS: all gated fields match\n"
                      : "PASS (with informational diffs):\n";
  } else {
    s = "FAIL: " + std::to_string(diffs.size()) + " field diff(s)\n";
  }
  for (const RegressDiff& d : diffs) {
    s += "  ";
    s += d.fatal ? "[fail] " : "[info] ";
    s += d.field + ": baseline=" + d.baseline + " candidate=" + d.candidate +
         "\n";
  }
  return s;
}

RegressResult compareRunRecords(const RunRecord& baseline,
                                const std::vector<RunRecord>& candidates,
                                const RegressPolicy& policy) {
  Gate g{policy, {}};
  if (candidates.empty()) {
    g.diff("candidates", "1+ record(s)", "0 records");
    return std::move(g.out);
  }

  // Preconditions: a record from a different input/configuration is not a
  // regression, it is incomparable — fail loudly before any value check.
  const RunRecord& first = candidates.front();
  g.exactInt("schema_version", baseline.schemaVersion, first.schemaVersion);
  g.exactBits("fingerprint", baseline.fingerprint, first.fingerprint);
  g.exactInt("seed", static_cast<long>(baseline.seed),
             static_cast<long>(first.seed));
  g.exactInt("threads", baseline.threads, first.threads);
  g.exactBool("supervised", baseline.supervised, first.supervised);
  g.exactInt("stages.count", static_cast<long>(baseline.stages.size()),
             static_cast<long>(first.stages.size()));
  const std::size_t nStages =
      std::min(baseline.stages.size(), first.stages.size());
  for (std::size_t i = 0; i < nStages; ++i) {
    g.exactStr("stages[" + std::to_string(i) + "].stage",
               baseline.stages[i].stage, first.stages[i].stage);
  }
  if (!g.out.pass) return std::move(g.out);

  // Determinism contract: every candidate identical to the first, then the
  // first identical to the baseline. A candidate-vs-candidate mismatch is
  // a determinism break, reported with its own prefix.
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    compareDeterministic(g, "run[" + std::to_string(i) + "] vs run[0]: ",
                         first, candidates[i]);
  }
  compareDeterministic(g, "", baseline, first);

  // Wall clock: median across candidates against the banded baseline.
  for (std::size_t i = 0; i < nStages; ++i) {
    std::vector<double> walls;
    walls.reserve(candidates.size());
    for (const RunRecord& c : candidates) walls.push_back(c.stages[i].wallMs);
    g.wall("stages[" + baseline.stages[i].stage + "].wall_ms",
           baseline.stages[i].wallMs, median(walls));
  }
  {
    std::vector<double> totals;
    totals.reserve(candidates.size());
    for (const RunRecord& c : candidates) {
      totals.push_back(c.totalSeconds * 1000.0);
    }
    g.wall("wall.total_seconds(ms)", baseline.totalSeconds * 1000.0,
           median(totals));
  }
  return std::move(g.out);
}

}  // namespace ep
