// RunRecord schema + determinism tests (docs/OBSERVABILITY.md).
//
// The record is the substrate of the regression gate, so the gate's
// assumptions are enforced here: the JSON schema round-trips losslessly
// (including IEEE bit patterns), parsing is strict in both directions
// (missing AND unknown fields are typed errors — schema drift cannot slip
// through silently), and the deterministic fields really are bit-identical
// across repeated runs and across thread counts at a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "model/netlist.h"
#include "util/run_record.h"

namespace ep {
namespace {

RunRecord sampleRecord() {
  RunRecord rec;
  rec.name = "sample";
  rec.fingerprint = 0xDEADBEEFCAFEF00DULL;
  rec.seed = 42;
  rec.threads = 4;
  rec.supervised = true;
  for (const char* name : {"mIP", "mGP", "mLG", "cGP", "cDP"}) {
    StageRecord st;
    st.stage = name;
    st.ran = true;
    st.wallMs = 12.5;
    st.iterations = 300;
    st.hpwl = 1.25e6;
    st.hpwlBits = doubleBits(st.hpwl);
    st.overflow = 0.07;
    st.retries = 1;
    st.recoveries = 2;
    st.rollbacks = 0;
    st.snapshots = 1;
    rec.stages.push_back(st);
  }
  rec.finalHpwl = 1.2e6;
  rec.finalHpwlBits = doubleBits(rec.finalHpwl);
  rec.finalScaledHpwl = 1.3e6;
  rec.finalOverflow = 0.05;
  rec.legal = true;
  rec.totalSeconds = 0.8;
  rec.peakBytes = 1 << 20;
  rec.arenaGrowthEvents = 3;
  rec.snapshotsWritten = 5;
  rec.status = "Ok";
  rec.stats = {{"flow.mGP.retries", 1.0}, {"gp.iterations", 300.0}};
  return rec;
}

PlacementDB smallCircuit(std::uint64_t seed) {
  GenSpec spec;
  spec.name = "rec";
  spec.numCells = 250;
  spec.numMovableMacros = 2;
  spec.seed = seed;
  return generateCircuit(spec);
}

RunRecord runSessionRecord(std::uint64_t seed, int threads) {
  SessionOptions so;
  so.name = "rec";
  so.threads = threads;
  so.seed = seed;
  so.flow.runDetail = false;
  so.flow.gp.maxIterations = 100;
  PlacerSession s(so);
  EXPECT_TRUE(s.adopt(smallCircuit(7)).ok());
  EXPECT_TRUE(s.place().ok());
  EXPECT_NE(s.record(), nullptr);
  return *s.record();
}

using RunRecordTest = ::testing::Test;

TEST_F(RunRecordTest, HexBits64RoundTrip) {
  const std::uint64_t patterns[] = {0, 1, 0xFFFFFFFFFFFFFFFFULL,
                                    doubleBits(-0.0), doubleBits(3.14159)};
  for (const std::uint64_t bits : patterns) {
    const std::string hex = hexBits64(bits);
    EXPECT_EQ(hex.size(), 18u);  // "0x" + 16 digits
    std::uint64_t back = 0;
    ASSERT_TRUE(parseHexBits64(hex, &back)) << hex;
    EXPECT_EQ(back, bits);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(parseHexBits64("", &out));
  EXPECT_FALSE(parseHexBits64("0x12", &out));             // too short
  EXPECT_FALSE(parseHexBits64("0xZZZZZZZZZZZZZZZZ", &out));
  EXPECT_FALSE(parseHexBits64("1234567890abcdef12", &out));  // no 0x
}

TEST_F(RunRecordTest, SchemaRoundTripIsLossless) {
  const RunRecord rec = sampleRecord();
  const StatusOr<RunRecord> back = parseRunRecord(writeRunRecord(rec));
  ASSERT_TRUE(back.ok()) << back.status().toString();
  const RunRecord& b = back.value();
  EXPECT_EQ(b.schemaVersion, rec.schemaVersion);
  EXPECT_EQ(b.name, rec.name);
  EXPECT_EQ(b.fingerprint, rec.fingerprint);
  EXPECT_EQ(b.seed, rec.seed);
  EXPECT_EQ(b.threads, rec.threads);
  EXPECT_EQ(b.supervised, rec.supervised);
  ASSERT_EQ(b.stages.size(), rec.stages.size());
  for (std::size_t i = 0; i < rec.stages.size(); ++i) {
    EXPECT_EQ(b.stages[i].stage, rec.stages[i].stage);
    EXPECT_EQ(b.stages[i].ran, rec.stages[i].ran);
    EXPECT_EQ(b.stages[i].iterations, rec.stages[i].iterations);
    EXPECT_EQ(b.stages[i].hpwlBits, rec.stages[i].hpwlBits);
    EXPECT_EQ(b.stages[i].retries, rec.stages[i].retries);
    EXPECT_EQ(b.stages[i].recoveries, rec.stages[i].recoveries);
    EXPECT_EQ(b.stages[i].rollbacks, rec.stages[i].rollbacks);
    EXPECT_EQ(b.stages[i].snapshots, rec.stages[i].snapshots);
  }
  EXPECT_EQ(b.finalHpwlBits, rec.finalHpwlBits);
  EXPECT_EQ(doubleBits(b.finalScaledHpwl), doubleBits(rec.finalScaledHpwl));
  EXPECT_EQ(doubleBits(b.finalOverflow), doubleBits(rec.finalOverflow));
  EXPECT_EQ(b.legal, rec.legal);
  EXPECT_EQ(b.peakBytes, rec.peakBytes);
  EXPECT_EQ(b.arenaGrowthEvents, rec.arenaGrowthEvents);
  EXPECT_EQ(b.snapshotsWritten, rec.snapshotsWritten);
  EXPECT_EQ(b.status, rec.status);
  EXPECT_EQ(b.stats, rec.stats);
}

TEST_F(RunRecordTest, BitPatternsSurviveTextRoundTrip) {
  // The JSON number path alone can lose the last ulp through a weak
  // printf/strtod; the *_bits hex fields are authoritative. -0.0 is the
  // classic casualty of a value-level comparison.
  RunRecord rec = sampleRecord();
  rec.finalHpwl = -0.0;
  rec.finalHpwlBits = doubleBits(-0.0);
  const StatusOr<RunRecord> back = parseRunRecord(writeRunRecord(rec));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().finalHpwlBits, doubleBits(-0.0));
  EXPECT_NE(back.value().finalHpwlBits, doubleBits(0.0));
}

/// The sample record as a JSON tree, for tests that mutate it below the
/// writer.
JsonValue sampleJson() {
  StatusOr<JsonValue> parsed = parseJson(writeRunRecord(sampleRecord()));
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed.value());
}

/// `obj` rebuilt without member `drop`, in the same member order.
JsonValue without(const JsonValue& obj, std::string_view drop) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : obj.members()) {
    if (key != drop) out.set(key, value);
  }
  return out;
}

/// `rec` with its top-level member `key` replaced by `value`.
JsonValue withMember(JsonValue rec, const std::string& key, JsonValue value) {
  rec.set(key, std::move(value));
  return rec;
}

void expectRejectedNaming(const JsonValue& v, const std::string& key) {
  RunRecord out;
  const Status st = runRecordFromJson(v, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput) << key;
  EXPECT_NE(st.toString().find(key), std::string::npos) << st.toString();
}

TEST_F(RunRecordTest, MissingFieldIsTypedError) {
  const JsonValue rec = sampleJson();
  expectRejectedNaming(without(rec, "seed"), "seed");

  // Below the top level: a stage entry and the final block are as strict.
  JsonValue stages = JsonValue::array();
  for (const JsonValue& e : rec.find("stages")->items()) stages.push(e);
  stages.push(without(stages.items().front(), "rollbacks"));
  expectRejectedNaming(withMember(rec, "stages", stages), "rollbacks");
  expectRejectedNaming(
      withMember(rec, "final", without(*rec.find("final"), "scaled_hpwl")),
      "scaled_hpwl");

  // A member of the wrong kind is as absent as a missing one.
  JsonValue fin = *rec.find("final");
  fin.set("legal", JsonValue::number(1));
  expectRejectedNaming(withMember(rec, "final", fin), "legal");
  fin = *rec.find("final");
  fin.set("hpwl_bits", JsonValue::str("0x12"));
  expectRejectedNaming(withMember(rec, "final", fin), "hpwl_bits");
  // So is an integer the field's type cannot hold.
  expectRejectedNaming(withMember(rec, "threads", JsonValue::number(1e30)),
                       "threads");
}

TEST_F(RunRecordTest, UnknownFieldIsTypedError) {
  const JsonValue rec = sampleJson();
  expectRejectedNaming(withMember(rec, "surprise", JsonValue::number(1)),
                       "surprise");
  JsonValue res = *rec.find("resources");
  res.set("swap_bytes", JsonValue::number(0));
  expectRejectedNaming(withMember(rec, "resources", res), "swap_bytes");
}

TEST_F(RunRecordTest, SchemaVersionIsCheckedBeforeAnyOtherKey) {
  // A newer record is rejected for its version, not for the first section
  // this reader does not know, so the message names what actually differs.
  JsonValue rec = sampleJson();
  rec.set("schema_version", JsonValue::number(2));
  rec.set("profile", JsonValue::array());
  RunRecord out;
  const Status st = runRecordFromJson(rec, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
  EXPECT_NE(st.toString().find("schema_version 2 unsupported"),
            std::string::npos)
      << st.toString();
}

TEST_F(RunRecordTest, FileRoundTripDurable) {
  const std::string path =
      ::testing::TempDir() + "/run_record_roundtrip.json";
  const RunRecord rec = sampleRecord();
  ASSERT_TRUE(writeRunRecordFile(path, rec).ok());
  const StatusOr<RunRecord> back = readRunRecordFile(path);
  ASSERT_TRUE(back.ok()) << back.status().toString();
  EXPECT_EQ(back.value().fingerprint, rec.fingerprint);
  EXPECT_EQ(back.value().finalHpwlBits, rec.finalHpwlBits);
  std::remove(path.c_str());
}

TEST_F(RunRecordTest, FingerprintHashesInputsNotSolverOutput) {
  PlacementDB a = smallCircuit(7);
  PlacementDB b = smallCircuit(7);
  EXPECT_EQ(netlistFingerprint(a), netlistFingerprint(b));
  // Moving a movable cell is solver output — the fingerprint must not move.
  for (auto i : b.movable()) {
    auto& o = b.objects[static_cast<std::size_t>(i)];
    o.lx += 5.0;
    o.ly += 5.0;
    break;
  }
  EXPECT_EQ(netlistFingerprint(a), netlistFingerprint(b));
  // A different instance is a different fingerprint.
  PlacementDB c = smallCircuit(8);
  EXPECT_NE(netlistFingerprint(a), netlistFingerprint(c));
}

TEST_F(RunRecordTest, RepeatedRunsBitIdenticalDeterministicFields) {
  const RunRecord r1 = runSessionRecord(21, 2);
  const RunRecord r2 = runSessionRecord(21, 2);
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_EQ(r1.finalHpwlBits, r2.finalHpwlBits);
  EXPECT_EQ(doubleBits(r1.finalScaledHpwl), doubleBits(r2.finalScaledHpwl));
  EXPECT_EQ(doubleBits(r1.finalOverflow), doubleBits(r2.finalOverflow));
  ASSERT_EQ(r1.stages.size(), r2.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i) {
    EXPECT_EQ(r1.stages[i].ran, r2.stages[i].ran);
    EXPECT_EQ(r1.stages[i].iterations, r2.stages[i].iterations)
        << r1.stages[i].stage;
    EXPECT_EQ(r1.stages[i].hpwlBits, r2.stages[i].hpwlBits)
        << r1.stages[i].stage;
    EXPECT_EQ(r1.stages[i].retries, r2.stages[i].retries);
    EXPECT_EQ(r1.stages[i].rollbacks, r2.stages[i].rollbacks);
  }
  // The full gate agrees: one run as baseline, the other as candidate.
  RegressPolicy policy;
  policy.checkWall = false;  // same machine, but keep the unit test noise-free
  const RegressResult res = compareRunRecords(r1, {r2}, policy);
  EXPECT_TRUE(res.pass) << res.summary();
}

TEST_F(RunRecordTest, OneVsFourThreadsBitIdenticalQuality) {
  // The determinism contract: thread count changes wall time and the
  // `threads` precondition field, never the quality fields.
  const RunRecord r1 = runSessionRecord(33, 1);
  const RunRecord r4 = runSessionRecord(33, 4);
  EXPECT_EQ(r1.fingerprint, r4.fingerprint);
  EXPECT_EQ(r1.finalHpwlBits, r4.finalHpwlBits);
  EXPECT_EQ(doubleBits(r1.finalOverflow), doubleBits(r4.finalOverflow));
  ASSERT_EQ(r1.stages.size(), r4.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i) {
    EXPECT_EQ(r1.stages[i].hpwlBits, r4.stages[i].hpwlBits)
        << r1.stages[i].stage;
    EXPECT_EQ(r1.stages[i].iterations, r4.stages[i].iterations)
        << r1.stages[i].stage;
  }
}

TEST_F(RunRecordTest, SupervisedSessionRecordIsSchemaValid) {
  namespace fs = std::filesystem;
  const fs::path snapDir =
      fs::path(::testing::TempDir()) / "run_record_supervised_snaps";
  fs::remove_all(snapDir);
  SessionOptions so;  // default seed: its top bits do not fit a double
  so.name = "sup";
  so.threads = 2;
  so.supervised = true;
  so.flow.runDetail = false;
  so.flow.gp.maxIterations = 80;
  so.sup.snapshotDir = snapDir.string();
  PlacerSession s(so);
  ASSERT_TRUE(s.adopt(smallCircuit(5)).ok());
  ASSERT_TRUE(s.place().ok());
  ASSERT_NE(s.record(), nullptr);
  const RunRecord& rec = *s.record();
  EXPECT_TRUE(rec.supervised);
  EXPECT_EQ(rec.threads, 2);
  // Round-trip through the strict parser — the record a live session
  // emits must satisfy its own schema.
  const StatusOr<RunRecord> back = parseRunRecord(writeRunRecord(rec));
  ASSERT_TRUE(back.ok()) << back.status().toString();
  EXPECT_EQ(back.value().finalHpwlBits, rec.finalHpwlBits);
  EXPECT_FALSE(rec.stats.empty());  // context stats registry dump rode along
  // The gate compares what the record writes, so the parsed record and the
  // one it was written from agree even where the text form is lossy.
  const RegressResult res = compareRunRecords(back.value(), {rec});
  EXPECT_TRUE(res.pass) << res.summary();

  // A boundary snapshot counts on the stage it leads into; the last one
  // (cursor "done") counts on no row.
  ASSERT_FALSE(rec.stages.empty());
  EXPECT_EQ(rec.stages.front().stage, "mIP");
  EXPECT_EQ(rec.stages.front().snapshots, 0);
  int rowSnapshots = 0;
  for (const StageRecord& st : rec.stages) rowSnapshots += st.snapshots;
  EXPECT_GT(rec.snapshotsWritten, 0);
  EXPECT_EQ(rowSnapshots, rec.snapshotsWritten - 1);
  fs::remove_all(snapDir);
}

// --- bench_results/ retention (pruneRecordFiles) ---------------------------

TEST_F(RunRecordTest, PruneRecordFilesRotatesOldestFirst) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("prune_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto touch = [&](const std::string& name) {
    std::ofstream(dir / name) << "{}\n";
  };
  // Sortable keys in the name define age; mtime is deliberately ignored.
  for (const char* n : {"sweep_0001.json", "sweep_0002.json",
                        "sweep_0003.json", "sweep_0004.json",
                        "sweep_0005.json"}) {
    touch(n);
  }
  touch("other_0001.json");   // different tool: untouched
  touch("sweep_0000.notes");  // not a .json record: untouched

  EXPECT_EQ(pruneRecordFiles(dir.string(), "sweep", 2), 3u);
  EXPECT_FALSE(fs::exists(dir / "sweep_0001.json"));
  EXPECT_FALSE(fs::exists(dir / "sweep_0002.json"));
  EXPECT_FALSE(fs::exists(dir / "sweep_0003.json"));
  EXPECT_TRUE(fs::exists(dir / "sweep_0004.json"));
  EXPECT_TRUE(fs::exists(dir / "sweep_0005.json"));
  EXPECT_TRUE(fs::exists(dir / "other_0001.json"));
  EXPECT_TRUE(fs::exists(dir / "sweep_0000.notes"));

  // Within the cap: a second prune is a no-op (deterministic fixpoint).
  EXPECT_EQ(pruneRecordFiles(dir.string(), "sweep", 2), 0u);
  // maxFiles == 0 means unlimited, never a mass delete.
  EXPECT_EQ(pruneRecordFiles(dir.string(), "sweep", 0), 0u);
  // Missing directory is a no-op, not an error.
  EXPECT_EQ(pruneRecordFiles((dir / "nope").string(), "sweep", 1), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ep
