#include "util/run_record.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>
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

namespace {

// The schema: each object's fields are listed once, in the *Fields()
// functions below, and three streams walk that list. The Writer appends the
// members in list order, the Reader reads them strictly, and the Flattener
// hands the regression gate every gated field in its written form. A field
// is added, renamed or re-tiered in one line, and the writer, the reader
// and the gate cannot disagree about it.

/// What the regression gate does with a field.
enum class Tier : std::uint8_t {
  kRecorded,      ///< written and read, never compared (noisy or redundant)
  kPrecondition,  ///< must match, or the records are incomparable
  kExact,         ///< identical across candidates and to the baseline
  kWall,          ///< median of the candidates against the banded baseline
};

/// Field forms other than the member's own type: a u64 as its "0x%016x" bit
/// pattern, and the schema version, which a reader rejects unless current.
template <class U>
struct Hex {
  U& v;
};
template <class U>
struct Version {
  U& v;
};

using Stats = std::vector<std::pair<std::string, double>>;

// Each value type's written form, and its strict read: fromJson returns ""
// or the tail of the message that names the member.
JsonValue toJson(double v) { return JsonValue::number(v); }
JsonValue toJson(bool v) { return JsonValue::boolean(v); }
JsonValue toJson(const std::string& v) { return JsonValue::str(v); }
template <std::integral I>
JsonValue toJson(I v) {
  return JsonValue::number(static_cast<double>(v));
}
JsonValue toJson(Hex<const std::uint64_t> h) {
  return JsonValue::str(hexBits64(h.v));
}
JsonValue toJson(Version<const int> ver) { return toJson(ver.v); }
JsonValue toJson(const Stats& stats) {
  JsonValue v = JsonValue::object();
  for (const auto& [k, val] : stats) v.set(k, JsonValue::number(val));
  return v;
}

std::string fromJson(const JsonValue& j, double& v) {
  if (!j.isNumber()) return " must be a number";
  v = j.asNumber();
  return {};
}
std::string fromJson(const JsonValue& j, bool& v) {
  if (!j.isBool()) return " must be a bool";
  v = j.asBool();
  return {};
}
std::string fromJson(const JsonValue& j, std::string& v) {
  if (!j.isString()) return " must be a string";
  v = j.asString();
  return {};
}
template <std::integral I>
std::string fromJson(const JsonValue& j, I& v) {
  // Range-checked, so a hostile number is a typed error, not an UB cast.
  const double d = j.asNumber();
  if (!j.isNumber() ||
      !(d >= static_cast<double>(std::numeric_limits<I>::min()) &&
        d < std::ldexp(1.0, std::numeric_limits<I>::digits))) {
    return " must be a number in range";
  }
  v = static_cast<I>(d);
  return {};
}
std::string fromJson(const JsonValue& j, Hex<std::uint64_t> h) {
  if (!j.isString() || !parseHexBits64(j.asString(), &h.v)) {
    return " is not a 0x… bit pattern";
  }
  return {};
}
std::string fromJson(const JsonValue& j, Version<int> ver) {
  std::string err = fromJson(j, ver.v);
  if (err.empty() && ver.v != RunRecord::kSchemaVersion) {
    err = " " + std::to_string(ver.v) + " unsupported (expected " +
          std::to_string(RunRecord::kSchemaVersion) + ")";
  }
  return err;
}
std::string fromJson(const JsonValue& j, Stats& stats) {
  if (!j.isObject()) return " must be an object";
  for (const auto& [k, val] : j.members()) {
    if (!val.isNumber()) return "." + k + " must be a number";
    stats.emplace_back(k, val.asNumber());
  }
  return {};
}

template <class S, class St>
void stageFields(S& s, St& st) {
  using enum Tier;
  s.field("stage", kPrecondition, st.stage);
  s.field("ran", kExact, st.ran);
  s.field("wall_ms", kWall, st.wallMs);
  s.field("iterations", kExact, st.iterations);
  s.field("hpwl", kRecorded, st.hpwl);  // gated as hpwl_bits
  s.field("hpwl_bits", kExact, Hex{st.hpwlBits});
  s.field("overflow", kExact, st.overflow);
  s.field("retries", kExact, st.retries);
  s.field("recoveries", kExact, st.recoveries);
  s.field("rollbacks", kExact, st.rollbacks);
  s.field("snapshots", kRecorded, st.snapshots);
}

template <class S, class R>
void recordFields(S& s, R& r) {
  using enum Tier;
  s.field("schema_version", kPrecondition, Version{r.schemaVersion});
  s.field("name", kRecorded, r.name);
  s.field("fingerprint", kPrecondition, Hex{r.fingerprint});
  s.field("seed", kPrecondition, r.seed);
  s.field("threads", kPrecondition, r.threads);
  s.field("supervised", kPrecondition, r.supervised);
  s.array("stages", r.stages, [](S& e, auto& st) { stageFields(e, st); });
  s.object("final", [&r](S& f) {
    f.field("hpwl", kRecorded, r.finalHpwl);  // gated as hpwl_bits
    f.field("hpwl_bits", kExact, Hex{r.finalHpwlBits});
    f.field("scaled_hpwl", kExact, r.finalScaledHpwl);
    f.field("overflow", kExact, r.finalOverflow);
    f.field("legal", kExact, r.legal);
  });
  s.object("wall", [&r](S& w) {
    w.field("total_seconds", kWall, r.totalSeconds);
  });
  // Resource figures move legitimately with unrelated refactors.
  s.object("resources", [&r](S& res) {
    res.field("peak_bytes", kRecorded, r.peakBytes);
    res.field("arena_growth_events", kRecorded, r.arenaGrowthEvents);
    res.field("snapshots_written", kRecorded, r.snapshotsWritten);
  });
  s.field("stats", kRecorded, r.stats);
  s.field("status", kExact, r.status);
}

/// Appends each listed field to `obj`, in list order.
struct Writer {
  JsonValue obj = JsonValue::object();

  template <class T>
  void field(const char* key, Tier, const T& v) {
    obj.set(key, toJson(v));
  }
  template <class F>
  void object(const char* key, F&& fields) {
    Writer sub;
    fields(sub);
    obj.set(key, std::move(sub.obj));
  }
  template <class E, class F>
  void array(const char* key, const std::vector<E>& items, F&& fields) {
    JsonValue arr = JsonValue::array();
    for (const E& e : items) {
      Writer sub;
      fields(sub, e);
      arr.push(std::move(sub.obj));
    }
    obj.set(key, std::move(arr));
  }
};

/// Reads each listed field out of `obj`. The first missing, wrong-kind or
/// unlisted member sets `st` to a kInvalidInput naming it, and the walk
/// reads nothing after that. Unlisted members are looked for once the
/// object's list is done, so the schema version, listed first, is checked
/// before any other key.
struct Reader {
  const JsonValue& obj;
  std::string path;
  Status& st;
  std::vector<std::string_view> listed;

  template <class F>
  static void walk(const JsonValue& obj, std::string path, Status& st,
                   F&& fields) {
    if (!obj.isObject()) {
      st = Status::invalidInput(path + " must be an object");
      return;
    }
    Reader r{obj, std::move(path), st, {}};
    fields(r);
    for (const auto& [k, unused] : obj.members()) {
      (void)unused;
      if (st.ok() &&
          std::find(r.listed.begin(), r.listed.end(), k) == r.listed.end()) {
        st = Status::invalidInput(r.path + ": unknown field \"" + k + "\"");
      }
    }
  }

  const JsonValue* member(const char* key) {
    if (!st.ok()) return nullptr;
    listed.emplace_back(key);
    const JsonValue* j = obj.find(key);
    if (j == nullptr) fail(path + ": missing field \"" + key + "\"");
    return j;
  }
  void fail(std::string what) { st = Status::invalidInput(std::move(what)); }

  template <class T>
  void field(const char* key, Tier, T&& v) {
    const JsonValue* j = member(key);
    if (j == nullptr) return;
    const std::string err = fromJson(*j, v);
    if (!err.empty()) fail(path + "." + key + err);
  }
  template <class F>
  void object(const char* key, F&& fields) {
    const JsonValue* j = member(key);
    if (j != nullptr) walk(*j, path + "." + key, st, fields);
  }
  template <class E, class F>
  void array(const char* key, std::vector<E>& items, F&& fields) {
    const JsonValue* j = member(key);
    if (j == nullptr) return;
    if (!j->isArray()) return fail(path + "." + key + " must be an array");
    items.resize(j->items().size());
    for (std::size_t i = 0; i < items.size() && st.ok(); ++i) {
      walk(j->items()[i], path + "." + key + "[" + std::to_string(i) + "]",
           st, [&](Reader& e) { fields(e, items[i]); });
    }
  }
};

}  // namespace

JsonValue runRecordToJson(const RunRecord& rec) {
  Writer w;
  recordFields(w, rec);
  return std::move(w.obj);
}

Status runRecordFromJson(const JsonValue& v, RunRecord* out) {
  *out = RunRecord{};
  Status st;
  Reader::walk(v, "record", st, [out](Reader& r) { recordFields(r, *out); });
  return st;
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

/// One gated field, as the writer emits it.
struct Flat {
  std::string name;  ///< e.g. "stages[mGP].hpwl_bits"
  Tier tier;
  std::string text;  ///< the written JSON value; compared for equality
  double number;     ///< the written number (wall fields)
};

/// Lists every gated field of a record, in schema order. Comparing the
/// written form means a field the text cannot carry exactly (a seed above
/// 2^53) compares equal between a record and its parsed copy.
struct Flattener {
  std::vector<Flat>& out;
  std::string prefix;

  template <class T>
  void field(const char* key, Tier tier, const T& v) {
    if (tier == Tier::kRecorded) return;
    const JsonValue j = toJson(v);
    out.push_back({prefix + key, tier, writeJson(j), j.asNumber()});
  }
  template <class F>
  void object(const char* key, F&& fields) {
    Flattener sub{out, prefix + key + "."};
    fields(sub);
  }
  /// Stage rows are named by their stage; their count is a precondition.
  template <class E, class F>
  void array(const char* key, const std::vector<E>& items, F&& fields) {
    out.push_back({prefix + key + ".count", Tier::kPrecondition,
                   std::to_string(items.size()), 0.0});
    for (const E& e : items) {
      Flattener sub{out, prefix + key + "[" + e.stage + "]."};
      fields(sub, e);
    }
  }
};

std::vector<Flat> flatten(const RunRecord& rec, Tier tier) {
  std::vector<Flat> all;
  Flattener f{all, ""};
  recordFields(f, rec);
  std::erase_if(all, [tier](const Flat& x) { return x.tier != tier; });
  return all;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Gate {
  const RegressPolicy& policy;
  RegressResult out;

  void diff(std::string field, std::string base, std::string cand) {
    out.pass = false;
    out.diffs.push_back({std::move(field), std::move(base), std::move(cand)});
  }

  /// Written-form equality of two field lists of the same tier. `where`
  /// prefixes the names, so the same walk serves baseline-vs-candidate and
  /// candidate-vs-candidate checks.
  void exact(const std::string& where, const std::vector<Flat>& base,
             const std::vector<Flat>& cand) {
    for (std::size_t i = 0; i < std::min(base.size(), cand.size()); ++i) {
      if (base[i].text != cand[i].text) {
        diff(where + base[i].name, base[i].text, cand[i].text);
      }
    }
  }

  /// Wall-clock gate: median candidate against the banded baseline.
  /// One-sided (faster always passes) and floored below minWallMs; a
  /// field's unit is its key's suffix (_ms or _seconds).
  void wall(const Flat& base, double med) {
    if (!policy.checkWall) return;
    const double toMs = base.name.ends_with("_seconds") ? 1000.0 : 1.0;
    if (base.number * toMs < policy.minWallMs) return;
    const double limit = base.number * (1.0 + policy.wallBandFrac);
    if (med <= limit) return;
    char msg[96];
    std::snprintf(msg, sizeof msg, "%.6g (limit %.6g)", med, limit);
    diff(base.name, base.text, msg);
  }
};

}  // namespace

std::string RegressResult::summary() const {
  std::string s = pass ? "PASS: all gated fields match\n"
                       : "FAIL: " + std::to_string(diffs.size()) +
                             " field diff(s)\n";
  for (const RegressDiff& d : diffs) {
    s += "  " + d.field + ": baseline=" + d.baseline +
         " candidate=" + d.candidate + "\n";
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
  // Every candidate is held to them, so past this point all field lists
  // line up entry for entry.
  const std::vector<Flat> basePre = flatten(baseline, Tier::kPrecondition);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    g.exact(i == 0 ? "" : "run[" + std::to_string(i) + "]: ", basePre,
            flatten(candidates[i], Tier::kPrecondition));
  }
  if (!g.out.pass) return std::move(g.out);

  // Determinism contract: every candidate identical to the first, then the
  // first identical to the baseline. A candidate-vs-candidate mismatch is
  // a determinism break, reported with its own prefix.
  const std::vector<Flat> first = flatten(candidates[0], Tier::kExact);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    g.exact("run[" + std::to_string(i) + "] vs run[0]: ", first,
            flatten(candidates[i], Tier::kExact));
  }
  g.exact("", flatten(baseline, Tier::kExact), first);

  // Wall clock: median across candidates against the banded baseline.
  const std::vector<Flat> baseWall = flatten(baseline, Tier::kWall);
  std::vector<std::vector<Flat>> candWall;
  for (const RunRecord& c : candidates) {
    candWall.push_back(flatten(c, Tier::kWall));
  }
  for (std::size_t k = 0; k < baseWall.size(); ++k) {
    std::vector<double> walls;
    for (const auto& cw : candWall) walls.push_back(cw[k].number);
    g.wall(baseWall[k], median(std::move(walls)));
  }
  return std::move(g.out);
}

std::vector<DeltaField> runRecordDeltaFields(const RunRecord& before,
                                             const RunRecord& after) {
  std::vector<DeltaField> fields{
      {"final hpwl", before.finalHpwl, after.finalHpwl}};
  for (const StageRecord& b : before.stages) {
    for (const StageRecord& a : after.stages) {
      if (a.stage != b.stage) continue;
      fields.push_back({b.stage + " iters", static_cast<double>(b.iterations),
                        static_cast<double>(a.iterations)});
      break;
    }
  }
  return fields;
}

StatusOr<std::vector<DeltaField>> jsonDeltaFields(std::string_view before,
                                                  std::string_view after) {
  StatusOr<JsonValue> b = parseJson(before);
  if (!b.ok()) return b.status();
  StatusOr<JsonValue> a = parseJson(after);
  if (!a.ok()) return a.status();
  if (!b->isObject() || !a->isObject()) {
    return Status::invalidInput("delta table: expected a JSON object");
  }
  std::vector<DeltaField> fields;
  for (const auto& [key, value] : b->members()) {
    const JsonValue* other = a->find(key);
    if (value.isNumber() && other != nullptr && other->isNumber()) {
      fields.push_back({key, value.asNumber(), other->asNumber()});
    }
  }
  return fields;
}

std::string deltaTableHeader(const std::vector<DeltaField>& fields) {
  std::string names = "| file |";
  std::string rule = "|---|";
  for (const DeltaField& f : fields) {
    names += " " + f.name + " |";
    rule += "---|";
  }
  return names + "\n" + rule + "\n";
}

std::string deltaTableRow(const std::string& label,
                          const std::vector<DeltaField>& fields) {
  std::string row = "| " + label + " |";
  char cell[128];
  for (const DeltaField& f : fields) {
    if (doubleBits(f.before) == doubleBits(f.after)) {
      std::snprintf(cell, sizeof cell, " %.10g (=) |", f.before);
    } else if (f.before != 0.0) {
      std::snprintf(cell, sizeof cell, " %.10g -> %.10g (%+.3f%%) |",
                    f.before, f.after,
                    100.0 * (f.after - f.before) / std::fabs(f.before));
    } else {
      std::snprintf(cell, sizeof cell, " %.10g -> %.10g |", f.before,
                    f.after);
    }
    row += cell;
  }
  return row + "\n";
}

}  // namespace ep
