// Noise-aware regression gate (ctest label: regression).
//
// Two halves:
//  1. Synthetic baseline/candidate pairs exercise every gate arm with known
//     inputs: identical records pass, a 5% HPWL regression fails with a
//     field-level diff, wall-clock inside the band passes, a 2.5x breach
//     fails, noise below the floor is ignored, the median absorbs one slow
//     outlier, and mismatched preconditions are "incomparable", not diffed.
//  2. A fixed-seed supervised flow is diffed against a committed baseline in
//     tests/baselines/ — the live end of the gate that CI runs.
//
// Updating the committed baselines (after an intentional quality change, or
// on a platform whose libm produces different last-ulp bits):
//
//   EP_UPDATE_BASELINES=1 ./build/tests/test_regression
//
// rewrites tests/baselines/*.json in the source tree (path baked in via the
// EP_BASELINE_DIR compile definition) and reports the runs as passed. It
// first prints each baseline's delta-table row, as eplace_regress --update
// does. Commit the regenerated files together with the change that shifted
// them, and quote the table in the commit message. Wall-clock fields in committed baselines are
// never compared by this test (checkWall=false) — they are machine-specific;
// the synthetic half covers the banding logic.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "eplace/session.h"
#include "gen/generator.h"
#include "util/io.h"
#include "util/run_record.h"

namespace ep {
namespace {

#ifndef EP_BASELINE_DIR
#error "EP_BASELINE_DIR must point at tests/baselines (set in CMakeLists.txt)"
#endif

/// Synthetic five-stage record with plausible values; the synthetic tests
/// perturb copies of this.
RunRecord makeRecord() {
  RunRecord rec;
  rec.name = "synthetic";
  rec.fingerprint = 0x1122334455667788ULL;
  rec.seed = 7;
  rec.threads = 2;
  rec.supervised = true;
  int i = 0;
  for (const char* name : {"mIP", "mGP", "mLG", "cGP", "cDP"}) {
    StageRecord st;
    st.stage = name;
    st.ran = true;
    st.wallMs = 100.0 + 50.0 * i;
    st.iterations = 100 * i;
    st.hpwl = 1.0e6 - 1.0e4 * i;
    st.hpwlBits = doubleBits(st.hpwl);
    st.overflow = 0.5 / (1 + i);
    rec.stages.push_back(st);
    ++i;
  }
  rec.finalHpwl = rec.stages.back().hpwl;
  rec.finalHpwlBits = doubleBits(rec.finalHpwl);
  rec.finalScaledHpwl = rec.finalHpwl * 1.02;
  rec.finalOverflow = rec.stages.back().overflow;
  rec.legal = true;
  rec.totalSeconds = 0.6;
  rec.status = "Ok";
  return rec;
}

bool hasDiffOn(const RegressResult& res, const std::string& field) {
  for (const auto& d : res.diffs) {
    if (d.field.find(field) != std::string::npos) return true;
  }
  return false;
}

using RegressionGate = ::testing::Test;

TEST_F(RegressionGate, IdenticalRecordsPass) {
  const RunRecord base = makeRecord();
  const RegressResult res = compareRunRecords(base, {base});
  EXPECT_TRUE(res.pass) << res.summary();
  EXPECT_TRUE(res.diffs.empty());
}

TEST_F(RegressionGate, FivePercentHpwlRegressionFailsWithFieldDiff) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.finalHpwl = base.finalHpwl * 1.05;
  cand.finalHpwlBits = doubleBits(cand.finalHpwl);
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "final.hpwl_bits")) << res.summary();
  // The report renders both bit patterns so a reviewer sees the magnitude.
  EXPECT_NE(res.summary().find(hexBits64(base.finalHpwlBits)),
            std::string::npos);
}

TEST_F(RegressionGate, LastUlpDriftStillFails) {
  // "Noise-aware" must not mean "tolerant": quality fields are bit-exact by
  // the determinism contract, so even a one-ulp drift is a real change.
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.stages[1].hpwlBits = base.stages[1].hpwlBits + 1;
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "stages[mGP].hpwl_bits")) << res.summary();
}

TEST_F(RegressionGate, IterationAndRetryDriftFails) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.stages[3].iterations += 5;
  cand.stages[4].retries = 1;
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "stages[cGP].iterations")) << res.summary();
  EXPECT_TRUE(hasDiffOn(res, "stages[cDP].retries")) << res.summary();
}

TEST_F(RegressionGate, WallWithinBandPasses) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  for (auto& st : cand.stages) st.wallMs *= 1.4;  // inside the default 50%
  cand.totalSeconds *= 1.4;
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_TRUE(res.pass) << res.summary();
}

TEST_F(RegressionGate, WallBreachFails) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.stages[1].wallMs *= 2.5;  // a real slowdown, far outside the band
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "stages[mGP].wall_ms")) << res.summary();
}

TEST_F(RegressionGate, TotalWallBreachFails) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.totalSeconds *= 2.0;
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "wall.total_seconds")) << res.summary();
}

TEST_F(RegressionGate, WallBelowNoiseFloorNeverGated) {
  RunRecord base = makeRecord();
  base.stages[0].wallMs = 5.0;  // under the 20 ms floor
  RunRecord cand = base;
  cand.stages[0].wallMs = 19.0;  // 3.8x "slower" — pure scheduler noise
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_TRUE(res.pass) << res.summary();
}

TEST_F(RegressionGate, MedianAbsorbsOneSlowOutlier) {
  const RunRecord base = makeRecord();
  RunRecord slow = base;
  for (auto& st : slow.stages) st.wallMs *= 3.0;  // one preempted run
  slow.totalSeconds *= 3.0;
  // Median of {1x, 1x, 3x} is 1x: the gate judges the typical run.
  const RegressResult res = compareRunRecords(base, {base, slow, base});
  EXPECT_TRUE(res.pass) << res.summary();
}

TEST_F(RegressionGate, CandidatesDisagreeingIsADeterminismBreak) {
  const RunRecord base = makeRecord();
  RunRecord odd = base;
  odd.finalHpwlBits = base.finalHpwlBits ^ 1;
  const RegressResult res = compareRunRecords(base, {base, odd});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "run[1] vs run[0]")) << res.summary();
}

TEST_F(RegressionGate, NoWallPolicySkipsWallEntirely) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  for (auto& st : cand.stages) st.wallMs *= 10.0;
  cand.totalSeconds *= 10.0;
  RegressPolicy policy;
  policy.checkWall = false;
  const RegressResult res = compareRunRecords(base, {cand}, policy);
  EXPECT_TRUE(res.pass) << res.summary();
}

TEST_F(RegressionGate, MismatchedPreconditionsAreIncomparable) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.fingerprint ^= 0xFFULL;  // different input netlist
  cand.finalHpwlBits ^= 1;      // would also diff — must NOT be reported
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "fingerprint")) << res.summary();
  EXPECT_FALSE(hasDiffOn(res, "final.hpwl_bits"))
      << "value diffs must not be reported for incomparable records:\n"
      << res.summary();
}

TEST_F(RegressionGate, ThreadCountMismatchIsIncomparable) {
  const RunRecord base = makeRecord();
  RunRecord cand = base;
  cand.threads = 8;
  const RegressResult res = compareRunRecords(base, {cand});
  EXPECT_FALSE(res.pass);
  EXPECT_TRUE(hasDiffOn(res, "threads")) << res.summary();
}

TEST_F(RegressionGate, CommittedBaselinesRoundTripByteForByte) {
  // The wire format is pinned by the committed files themselves: reading
  // one and writing it back must reproduce it exactly (key order, number
  // formatting, bit patterns).
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(EP_BASELINE_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string path = entry.path().string();
    const StatusOr<std::string> text = io::readFile(path);
    ASSERT_TRUE(text.ok()) << path;
    const StatusOr<RunRecord> rec = readRunRecordFile(path);
    ASSERT_TRUE(rec.ok()) << rec.status().toString();
    EXPECT_EQ(writeRunRecord(rec.value()) + "\n", text.value()) << path;
    ++files;
  }
  EXPECT_GE(files, 4);
}

// ---------------------------------------------------------------------------
// Committed-baseline gate: the fixed-seed flow CI runs.
// ---------------------------------------------------------------------------

struct BaselineCase {
  const char* name;
  std::uint64_t genSeed;
  std::size_t cells;
  std::size_t macros;
  std::uint64_t runSeed;
};

constexpr BaselineCase kBaselines[] = {
    {"flow_small", 101, 300, 2, 11},
    {"flow_macro", 102, 400, 6, 12},
};

RunRecord runBaselineCase(const BaselineCase& c) {
  GenSpec spec;
  spec.name = c.name;
  spec.numCells = c.cells;
  spec.numMovableMacros = c.macros;
  spec.seed = c.genSeed;

  SessionOptions so;
  so.name = c.name;
  so.threads = 2;
  so.seed = c.runSeed;
  so.supervised = true;
  so.flow.runDetail = false;
  so.flow.gp.maxIterations = 120;
  PlacerSession s(so);
  EXPECT_TRUE(s.adopt(generateCircuit(spec)).ok());
  EXPECT_TRUE(s.place().ok());
  EXPECT_NE(s.record(), nullptr);
  return *s.record();
}

std::string baselinePath(const BaselineCase& c) {
  return std::string(EP_BASELINE_DIR) + "/" + c.name + ".json";
}

class CommittedBaseline : public ::testing::TestWithParam<int> {};

TEST_P(CommittedBaseline, FixedSeedFlowMatchesCommittedRecord) {
  const BaselineCase& c = kBaselines[GetParam()];
  const RunRecord rec = runBaselineCase(c);

  if (std::getenv("EP_UPDATE_BASELINES") != nullptr) {
    if (const StatusOr<RunRecord> old = readRunRecordFile(baselinePath(c));
        old.ok()) {
      const auto fields = runRecordDeltaFields(old.value(), rec);
      std::printf("%s%s", deltaTableHeader(fields).c_str(),
                  deltaTableRow(c.name, fields).c_str());
    }
    ASSERT_TRUE(writeRunRecordFile(baselinePath(c), rec).ok());
    std::printf("updated %s (hpwl %s)\n", baselinePath(c).c_str(),
                hexBits64(rec.finalHpwlBits).c_str());
    return;
  }

  const StatusOr<RunRecord> baseline = readRunRecordFile(baselinePath(c));
  ASSERT_TRUE(baseline.ok())
      << "missing/invalid baseline " << baselinePath(c) << ": "
      << baseline.status().toString()
      << "; run EP_UPDATE_BASELINES=1 ./test_regression";

  RegressPolicy policy;
  policy.checkWall = false;  // committed wall figures are machine-specific
  const RegressResult res = compareRunRecords(baseline.value(), {rec}, policy);
  EXPECT_TRUE(res.pass) << res.summary()
                        << "if this change is intentional, regenerate with "
                           "EP_UPDATE_BASELINES=1 ./test_regression";
}

INSTANTIATE_TEST_SUITE_P(Cases, CommittedBaseline, ::testing::Values(0, 1));

}  // namespace
}  // namespace ep
