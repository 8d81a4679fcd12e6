// Serve-layer unit tests: the jsonlite codec, the request parser and its
// corpus of malformed lines, a seeded mutation fuzzer (every corrupted line
// must yield Ok or a typed kInvalidInput — never a crash or a wrong-kind
// status), the bounded AdmissionQueue contract, and JobStore journal
// round-trips including corrupt-entry recovery.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "util/jsonlite.h"
#include "util/rng.h"
#include "util/status.h"

namespace fs = std::filesystem;
using namespace ep;
using namespace ep::serve;

// ---------------------------------------------------------------------------
// jsonlite

TEST(JsonLite, RoundTripsScalars) {
  for (const std::string text :
       {"null", "true", "false", "0", "-1", "3.25", "\"hi\"", "[]", "{}",
        "[1,2,3]", "{\"a\":1,\"b\":[true,null]}"}) {
    auto v = parseJson(text);
    ASSERT_TRUE(v.ok()) << text;
    EXPECT_EQ(writeJson(*v), text) << text;
  }
}

TEST(JsonLite, IntegralDoublesRoundTripExactly) {
  // Job ids travel as JSON numbers; 2^53-1 must survive a round trip.
  const std::uint64_t big = (1ULL << 53) - 1;
  JsonValue v = JsonValue::number(static_cast<double>(big));
  auto back = parseJson(writeJson(v));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(back->asNumber()), big);
}

TEST(JsonLite, StringEscapes) {
  auto v = parseJson("\"a\\n\\t\\\"\\\\b\\u0041\\u00e9\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->asString(), "a\n\t\"\\bA\xc3\xa9");
  // Control characters re-escape on output.
  const std::string out = writeJson(*v);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  auto again = parseJson(out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->asString(), v->asString());
}

TEST(JsonLite, SurrogatePairs) {
  auto v = parseJson("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->asString(), "\xf0\x9f\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_FALSE(parseJson("\"\\ud83d\"").ok());
}

TEST(JsonLite, RejectsMalformed) {
  for (const std::string text :
       {"", "{", "}", "[1,", "{\"a\"}", "{\"a\":}", "tru", "nul", "01",
        "1.2.3", "\"unterminated", "{\"a\":1,}", "[1 2]", "{\"a\" 1}",
        "\"bad\\q\"", "1e999", "nan", "inf", "{\"a\":1}x", "[1]tail"}) {
    auto v = parseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidInput) << text;
    }
  }
}

TEST(JsonLite, DepthLimitBoundsRecursion) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 200; ++i) deep += "]";
  auto v = parseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidInput);
  // Within the limit it parses fine.
  EXPECT_TRUE(parseJson("[[[[[[[[1]]]]]]]]").ok());
}

TEST(JsonLite, NonFiniteSerializesAsNull) {
  EXPECT_EQ(writeJson(JsonValue::number(std::nan(""))), "null");
  EXPECT_EQ(writeJson(JsonValue::number(HUGE_VAL)), "null");
}

TEST(JsonLite, SetOverwritesPreservingOrder) {
  JsonValue o = JsonValue::object();
  o.set("a", JsonValue::number(1));
  o.set("b", JsonValue::number(2));
  o.set("a", JsonValue::number(3));
  EXPECT_EQ(writeJson(o), "{\"a\":3,\"b\":2}");
}

// ---------------------------------------------------------------------------
// Request parser corpus

TEST(Protocol, ParsesEveryOp) {
  struct Case {
    const char* line;
    Request::Op op;
  };
  const Case cases[] = {
      {"{\"op\":\"ping\"}", Request::Op::kPing},
      {"{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":100}}}",
       Request::Op::kSubmit},
      {"{\"op\":\"cancel\",\"id\":7}", Request::Op::kCancel},
      {"{\"op\":\"result\",\"id\":7}", Request::Op::kResult},
      {"{\"op\":\"wait\",\"id\":7,\"timeout\":1.5}", Request::Op::kWait},
      {"{\"op\":\"watch\",\"id\":7}", Request::Op::kWatch},
      {"{\"op\":\"stats\"}", Request::Op::kStats},
      {"{\"op\":\"shutdown\"}", Request::Op::kShutdown},
  };
  for (const Case& c : cases) {
    auto r = parseRequestLine(c.line);
    ASSERT_TRUE(r.ok()) << c.line << ": " << r.status().toString();
    EXPECT_EQ(r->op, c.op) << c.line;
  }
}

TEST(Protocol, MalformedCorpusYieldsTypedInvalidInput) {
  const char* corpus[] = {
      "",
      "   ",
      "{",
      "not json",
      "[1,2,3]",                      // not an object
      "42",                           // not an object
      "{\"op\":42}",                  // op not a string
      "{\"op\":\"fly\"}",             // unknown op
      "{\"id\":1}",                   // no op at all
      "{\"op\":\"submit\"}",          // submit without job
      "{\"op\":\"submit\",\"job\":42}",
      "{\"op\":\"submit\",\"job\":{}}",  // neither aux nor gen
      "{\"op\":\"submit\",\"job\":{\"aux\":\"a\",\"gen\":{}}}",  // both
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":0}}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":-4}}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":9000000}}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":100},"
      "\"threads\":0}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":100},"
      "\"threads\":9999}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":100},"
      "\"priority\":1.5}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":100},"
      "\"inject\":[{\"site\":\"x\",\"kind\":\"meteor\"}]}}",
      "{\"op\":\"cancel\"}",           // id required
      "{\"op\":\"cancel\",\"id\":-1}",
      "{\"op\":\"cancel\",\"id\":1.5}",
      "{\"op\":\"cancel\",\"id\":\"seven\"}",
      "{\"op\":\"wait\",\"id\":1e300}",  // above 2^53
  };
  for (const char* line : corpus) {
    auto r = parseRequestLine(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput) << line;
    }
  }
}

TEST(Protocol, OversizedLineRejectedBeforeParsing) {
  std::string line = "{\"op\":\"ping\",\"pad\":\"";
  line.append(1000, 'x');
  line += "\"}";
  EXPECT_TRUE(parseRequestLine(line).ok());
  auto r = parseRequestLine(line, /*maxBytes=*/100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
}

TEST(Protocol, EmbeddedNulBytesRejected) {
  std::string line = "{\"op\":\"ping\"}";
  line[3] = '\0';
  EXPECT_FALSE(parseRequestLine(line).ok());
}

TEST(Protocol, JobSpecRoundTrip) {
  JobSpec spec;
  spec.name = "round_trip";
  spec.hasGen = true;
  spec.gen.numCells = 1234;
  spec.gen.numMovableMacros = 3;
  spec.gen.seed = 99;
  spec.priority = -2;
  spec.deadlineSeconds = 4.5;
  spec.threads = 4;
  spec.saveEvery = 10;
  spec.gpMaxIterations = 77;
  spec.runDetail = false;
  InjectSpec inj;
  inj.site = "nesterov.grad";
  inj.spec.kind = FaultKind::kSpike;
  inj.spec.atTick = 12;
  inj.spec.count = 3;
  inj.spec.magnitude = 2.5;
  spec.injections.push_back(inj);

  JobSpec back;
  ASSERT_TRUE(jobSpecFromJson(jobSpecToJson(spec), &back).ok());
  EXPECT_EQ(back.name, spec.name);
  EXPECT_TRUE(back.hasGen);
  EXPECT_EQ(back.gen.numCells, spec.gen.numCells);
  EXPECT_EQ(back.gen.numMovableMacros, spec.gen.numMovableMacros);
  EXPECT_EQ(back.gen.seed, spec.gen.seed);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_DOUBLE_EQ(back.deadlineSeconds, spec.deadlineSeconds);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.saveEvery, spec.saveEvery);
  EXPECT_EQ(back.gpMaxIterations, spec.gpMaxIterations);
  EXPECT_EQ(back.runDetail, spec.runDetail);
  ASSERT_EQ(back.injections.size(), 1u);
  EXPECT_EQ(back.injections[0].site, "nesterov.grad");
  EXPECT_EQ(back.injections[0].spec.kind, FaultKind::kSpike);
  EXPECT_EQ(back.injections[0].spec.atTick, 12);
  EXPECT_EQ(back.injections[0].spec.count, 3);
  EXPECT_DOUBLE_EQ(back.injections[0].spec.magnitude, 2.5);
}

TEST(Protocol, OutcomeRoundTripPreservesHpwlBits) {
  JobOutcome out;
  out.id = 41;
  out.name = "x";
  out.status = Status::cancelled("client asked");
  out.finalHpwl = 1.0 / 3.0;
  out.hpwlBits = std::bit_cast<std::uint64_t>(out.finalHpwl);
  out.legal = true;
  out.wallSeconds = 0.25;
  out.queueWaitSeconds = 0.125;
  out.retries = 2;
  out.recoveries = 1;
  out.resumed = true;

  JobOutcome back;
  ASSERT_TRUE(outcomeFromJson(outcomeToJson(out), &back).ok());
  EXPECT_EQ(back.id, out.id);
  EXPECT_EQ(back.status.code(), StatusCode::kCancelled);
  // The double travels as text AND as a bit pattern; the bit pattern is
  // authoritative and must be exact.
  EXPECT_EQ(back.hpwlBits, out.hpwlBits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.finalHpwl), out.hpwlBits);
  EXPECT_TRUE(back.legal);
  EXPECT_EQ(back.retries, 2);
  EXPECT_EQ(back.recoveries, 1);
  EXPECT_TRUE(back.resumed);
}

TEST(Protocol, ErrorResponseRoundTripsStatusKind) {
  for (const Status& s :
       {Status::resourceExhausted("queue full"), Status::unavailable("bye"),
        Status::cancelled("stop"), Status::invalidInput("bad"),
        Status::timeout("late")}) {
    const Status back = statusFromResponse(errorResponse(s));
    EXPECT_EQ(back.code(), s.code()) << s.toString();
  }
  EXPECT_TRUE(statusFromResponse(okResponse()).ok());
}

// ---------------------------------------------------------------------------
// Seeded protocol fuzzer

namespace {

std::string validSubmitLine() {
  JobSpec spec;
  spec.name = "fuzz_seed";
  spec.hasGen = true;
  spec.gen.numCells = 500;
  spec.gen.seed = 7;
  spec.priority = 3;
  spec.deadlineSeconds = 9.5;
  spec.saveEvery = 5;
  InjectSpec inj;
  inj.site = "fft.forward";
  inj.spec.kind = FaultKind::kNaN;
  inj.spec.atTick = 4;
  spec.injections.push_back(inj);
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("submit"));
  req.set("job", jobSpecToJson(spec));
  return writeJson(req);
}

}  // namespace

TEST(ProtocolFuzz, MutatedSubmitLinesNeverCrashAndFailTyped) {
  const std::string seedLine = validSubmitLine();
  ASSERT_TRUE(parseRequestLine(seedLine).ok());
  Rng rng(20260808);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 600; ++iter) {
    std::string line = seedLine;
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.below(5)) {
        case 0: {  // flip a bit
          const std::size_t i =
              static_cast<std::size_t>(rng.below(line.size()));
          line[i] = static_cast<char>(line[i] ^ (1u << rng.below(8)));
          break;
        }
        case 1:  // truncate
          line.resize(static_cast<std::size_t>(rng.below(line.size() + 1)));
          break;
        case 2: {  // duplicate a span
          if (line.empty()) break;
          const std::size_t a =
              static_cast<std::size_t>(rng.below(line.size()));
          const std::size_t n = static_cast<std::size_t>(
              rng.below(line.size() - a) + 1);
          line.insert(a, line.substr(a, n));
          break;
        }
        case 3: {  // delete a span
          if (line.empty()) break;
          const std::size_t a =
              static_cast<std::size_t>(rng.below(line.size()));
          line.erase(a, static_cast<std::size_t>(
                            rng.below(line.size() - a) + 1));
          break;
        }
        default: {  // insert random bytes
          std::string junk;
          for (int i = 0; i < 4; ++i) {
            junk += static_cast<char>(rng.below(256));
          }
          line.insert(static_cast<std::size_t>(rng.below(line.size() + 1)),
                      junk);
          break;
        }
      }
    }
    auto r = parseRequestLine(line, 64 * 1024);
    if (r.ok()) {
      ++accepted;  // a mutation can still be valid JSON + a valid request
    } else {
      ++rejected;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput)
          << "iter " << iter << " -> " << r.status().toString();
    }
  }
  // The overwhelming majority of mutations must be rejected; if not, the
  // validator is too lax to protect the daemon.
  EXPECT_GT(rejected, accepted * 3) << rejected << " vs " << accepted;
}

TEST(ProtocolFuzz, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int iter = 0; iter < 400; ++iter) {
    std::string line;
    const std::size_t n = static_cast<std::size_t>(rng.below(300));
    for (std::size_t i = 0; i < n; ++i) {
      line += static_cast<char>(rng.below(256));
    }
    auto r = parseRequestLine(line, 64 * 1024);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
    }
  }
}

// ---------------------------------------------------------------------------
// AdmissionQueue

TEST(AdmissionQueue, FullQueueRejectsImmediatelyTyped) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.tryPush(1, 0).ok());
  EXPECT_TRUE(q.tryPush(2, 0).ok());
  const Status s = q.tryPush(3, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, PriorityDescendingFifoWithin) {
  AdmissionQueue q(10);
  ASSERT_TRUE(q.tryPush(1, 0).ok());
  ASSERT_TRUE(q.tryPush(2, 5).ok());
  ASSERT_TRUE(q.tryPush(3, 5).ok());
  ASSERT_TRUE(q.tryPush(4, -1).ok());
  ASSERT_TRUE(q.tryPush(5, 0).ok());
  std::vector<std::uint64_t> order;
  std::uint64_t id = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(&id));
    order.push_back(id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 1, 5, 4}));
}

TEST(AdmissionQueue, TryEraseRemovesQueuedJob) {
  AdmissionQueue q(4);
  ASSERT_TRUE(q.tryPush(1, 0).ok());
  ASSERT_TRUE(q.tryPush(2, 0).ok());
  EXPECT_TRUE(q.tryErase(1));
  EXPECT_FALSE(q.tryErase(1));   // already gone
  EXPECT_FALSE(q.tryErase(99));  // never queued
  std::uint64_t id = 0;
  ASSERT_TRUE(q.pop(&id));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, CloseWakesBlockedPopAndStopsAdmission) {
  AdmissionQueue q(4);
  std::thread popper([&q] {
    std::uint64_t id = 0;
    EXPECT_FALSE(q.pop(&id));  // woken by close, nothing dequeued
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  q.close();
  popper.join();
  const Status s = q.tryPush(9, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST(AdmissionQueue, CloseLeavesEntriesQueuedForRecovery) {
  AdmissionQueue q(4);
  ASSERT_TRUE(q.tryPush(1, 0).ok());
  q.close();
  std::uint64_t id = 0;
  // pop() returns false once closed even with entries left: the daemon
  // journals the leftovers as preempted instead of draining them.
  EXPECT_FALSE(q.pop(&id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(AdmissionQueue, RecoveredJobsBypassCapacity) {
  AdmissionQueue q(1);
  ASSERT_TRUE(q.tryPush(1, 0).ok());
  ASSERT_FALSE(q.tryPush(2, 0).ok());
  q.pushRecovered(3, 7);  // must not be bounced by the full queue
  EXPECT_EQ(q.size(), 2u);
  std::uint64_t id = 0;
  ASSERT_TRUE(q.pop(&id));
  EXPECT_EQ(id, 3u);  // higher priority runs first
}

// ---------------------------------------------------------------------------
// JobStore journal

class JobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("serve_store_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(JobStoreTest, PendingJobsRecoverInIdOrder) {
  JobStore store(dir_);
  ASSERT_TRUE(store.init().ok());
  JobSpec spec;
  spec.hasGen = true;
  spec.gen.numCells = 321;
  spec.gen.seed = 5;
  spec.priority = 2;
  ASSERT_TRUE(store.writePending(7, spec).ok());
  ASSERT_TRUE(store.writePending(3, spec).ok());
  ASSERT_TRUE(store.writePending(11, spec).ok());

  int corrupt = -1;
  const auto pending = store.recoverPending(&corrupt);
  EXPECT_EQ(corrupt, 0);
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].id, 3u);
  EXPECT_EQ(pending[1].id, 7u);
  EXPECT_EQ(pending[2].id, 11u);
  EXPECT_EQ(pending[0].spec.gen.numCells, 321u);
  EXPECT_EQ(pending[0].spec.priority, 2);
  EXPECT_EQ(store.maxJobId(), 11u);
}

TEST_F(JobStoreTest, ResultSupersedesJournalEntry) {
  JobStore store(dir_);
  ASSERT_TRUE(store.init().ok());
  JobSpec spec;
  spec.hasGen = true;
  ASSERT_TRUE(store.writePending(1, spec).ok());
  ASSERT_TRUE(store.writePending(2, spec).ok());

  JobOutcome out;
  out.id = 1;
  out.hpwlBits = 0x4141414141414141ULL;
  ASSERT_TRUE(store.writeResult(out).ok());
  // Job 1 has a result: even with its journal entry still present it must
  // not be recovered (the kill could land between result write and journal
  // removal).
  const auto pending = store.recoverPending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 2u);

  ASSERT_TRUE(store.hasResult(1));
  auto back = store.readResult(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->hpwlBits, 0x4141414141414141ULL);
  EXPECT_FALSE(store.hasResult(2));
  EXPECT_FALSE(store.readResult(2).ok());
}

TEST_F(JobStoreTest, CorruptJournalEntryDroppedNotFatal) {
  JobStore store(dir_);
  ASSERT_TRUE(store.init().ok());
  JobSpec spec;
  spec.hasGen = true;
  ASSERT_TRUE(store.writePending(1, spec).ok());
  {
    std::ofstream bad(dir_ + "/jobs/job_2.json");
    bad << "{\"half\": tru";
  }
  int corrupt = 0;
  const auto pending = store.recoverPending(&corrupt);
  EXPECT_EQ(corrupt, 1);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 1u);
  // The corrupt id still counts for allocation so a new job can't collide.
  EXPECT_EQ(store.maxJobId(), 2u);
}

TEST_F(JobStoreTest, OverflowingJobIdIsIgnored) {
  JobStore store(dir_);
  ASSERT_TRUE(store.init().ok());
  JobSpec spec;
  spec.hasGen = true;
  ASSERT_TRUE(store.writePending(1, spec).ok());
  // 2^64 + 1 (20 digits) does not fit a job id. Read with wrap-around it
  // would alias job 1 and recover it twice.
  fs::copy_file(dir_ + "/jobs/job_1.json",
                dir_ + "/jobs/job_18446744073709551617.json");
  int corrupt = -1;
  const auto pending = store.recoverPending(&corrupt);
  EXPECT_EQ(corrupt, 0);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 1u);
  EXPECT_EQ(store.maxJobId(), 1u);
}

TEST_F(JobStoreTest, RemovePendingIsIdempotent) {
  JobStore store(dir_);
  ASSERT_TRUE(store.init().ok());
  JobSpec spec;
  spec.hasGen = true;
  ASSERT_TRUE(store.writePending(4, spec).ok());
  store.removePending(4);
  store.removePending(4);
  EXPECT_TRUE(store.recoverPending().empty());
  EXPECT_EQ(store.maxJobId(), 0u);
}
