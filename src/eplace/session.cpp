#include "eplace/session.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "bookshelf/bookshelf.h"
#include "util/timer.h"

namespace ep {

namespace {

RuntimeOptions toRuntimeOptions(const SessionOptions& opt) {
  RuntimeOptions ro;
  ro.threads = opt.threads;
  ro.seed = opt.seed;
  ro.logPrefix = opt.name;
  ro.logLevel = opt.logLevel;
  ro.logTimestamps = opt.logTimestamps;
  ro.wallBudgetSeconds = opt.wallBudgetSeconds;
  ro.memBudgetBytes = opt.memBudgetMb << 20;
  return ro;
}

/// "designs/adaptec1.aux" -> "adaptec1".
std::string stemOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
  auto dot = path.find_last_of('.');
  if (dot == std::string::npos || dot < begin) dot = path.size();
  return path.substr(begin, dot - begin);
}

}  // namespace

PlacerSession::PlacerSession(SessionOptions opt)
    : opt_(std::move(opt)), ctx_(toRuntimeOptions(opt_)) {}

Status PlacerSession::load(const std::string& auxPath) {
  db_ = PlacementDB{};
  loaded_ = false;
  hasResult_ = false;
  const Status s = readBookshelf(auxPath, db_, ctx_);
  if (!s.ok()) return s;
  loaded_ = true;
  ctx_.log().info("session: loaded %s (%zu objects, %zu nets)",
                  db_.name.c_str(), db_.objects.size(), db_.nets.size());
  return Status::okStatus();
}

Status PlacerSession::adopt(PlacementDB db) {
  db_ = std::move(db);
  hasResult_ = false;
  if (!db_.view().built()) db_.finalize();
  loaded_ = true;
  return Status::okStatus();
}

StatusOr<FlowResult> PlacerSession::place() {
  if (!loaded_) {
    return Status::invalidInput("no instance loaded; call load() or adopt()");
  }
  // Memory governance: the view/CSR arrays are the session's O(cells+pins)
  // base cost — charge them up front so an oversized instance fails here
  // with a typed status instead of OOMing mid-flow — and meter all arena
  // growth (kernel scratch, GP state, density maps) through the context
  // budget for the duration of the run. Accounting runs even without a
  // limit so peak-bytes reporting works for unbudgeted jobs.
  MemoryBudget& mb = ctx_.memory();
  db_.view().arena().setBudget(&mb);
  ScopedCharge base(mb, db_.view().footprintBytes());
  if (mb.limited() && !base.ok()) {
    return Status::resourceExhausted(
        "memory budget " + std::to_string(mb.limitBytes()) +
        " B cannot hold the placement view (" +
        std::to_string(db_.view().footprintBytes()) + " B)");
  }
  StatusOr<FlowResult> run = runSupervisedFlow(
      db_, opt_.flow, ctx_, opt_.supervised ? opt_.sup : plainPolicy(),
      &report_);
  if (run.ok()) {
    result_ = *run;
    record_ = buildRunRecord(db_, result_, report_, ctx_, opt_.supervised);
    hasResult_ = true;
  }
  return run;
}

BatchResult runPlacerBatch(const std::vector<BatchItem>& items,
                           const BatchOptions& opt) {
  BatchResult batch;
  batch.items.resize(items.size());
  if (items.empty()) return batch;

  const int slots = std::min<int>(std::max(1, opt.maxConcurrentSessions),
                                  static_cast<int>(items.size()));
  const int threadsPer =
      opt.totalThreads > 0 ? std::max(1, opt.totalThreads / slots)
                           : opt.session.threads;

  Timer wall;
  // Job-level work stealing: each slot claims the next unplaced item. The
  // fixed-partition pools inside a session cannot rebalance across
  // sessions, but the determinism contract makes the per-session thread
  // cap result-invariant, so an even static split costs nothing in
  // correctness and the job queue evens out wall-clock.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      const BatchItem& item = items[i];
      BatchItemResult& out = batch.items[i];
      out.name = item.name.empty() ? stemOf(item.auxPath) : item.name;
      Timer t;
      SessionOptions so = opt.session;
      so.name = out.name;
      so.threads = threadsPer;
      if (!opt.snapshotRoot.empty()) {
        so.supervised = true;
        so.sup.snapshotDir = opt.snapshotRoot + "/" + out.name;
        if (!so.sup.resumeDir.empty()) {
          so.sup.resumeDir = opt.snapshotRoot + "/" + out.name;
        }
      }
      try {
        PlacerSession session(so);
        out.status = session.load(item.auxPath);
        if (out.status.ok()) {
          StatusOr<FlowResult> run = session.place();
          if (run.ok()) {
            out.flow = *run;
            out.record = *session.record();
          } else {
            out.status = run.status();
          }
        }
      } catch (const std::exception& e) {
        out.status = Status::internal(std::string("session aborted: ") +
                                      e.what());
      }
      out.seconds = t.seconds();
    }
  };

  if (slots == 1) {
    worker();  // degenerate batch: no extra thread, easier to debug
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(slots));
    for (int s = 0; s < slots; ++s) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  batch.totalSeconds = wall.seconds();
  return batch;
}

}  // namespace ep
