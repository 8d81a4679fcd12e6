#include "util/context.h"

namespace ep {

namespace {

RuntimeOptions withThreads(int threads) {
  RuntimeOptions opt;
  opt.threads = threads;
  return opt;
}

}  // namespace

RuntimeContext::RuntimeContext(RuntimeOptions opt)
    : opt_(std::move(opt)),
      sink_(opt_.logPrefix, opt_.logLevel),
      pool_(opt_.threads),
      rng_(opt_.seed),
      wallBudgetSeconds_(opt_.wallBudgetSeconds) {
  sink_.setTimestamps(opt_.logTimestamps);
  faults_.setLogSink(&sink_);
  pool_.setFaultInjector(&faults_);
  memory_.setLimit(opt_.memBudgetBytes);
}

RuntimeContext::RuntimeContext(int threads)
    : RuntimeContext(withThreads(threads)) {}

}  // namespace ep
