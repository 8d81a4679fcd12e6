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
      pool_(opt_.threads),
      rng_(opt_.seed),
      ownSink_(opt_.logPrefix, opt_.logLevel),
      wallBudgetSeconds_(opt_.wallBudgetSeconds) {
  ownSink_.setTimestamps(opt_.logTimestamps);
  pool_.setFaultInjector(&faults_);
  memory_.setLimit(opt_.memBudgetBytes);
}

RuntimeContext::RuntimeContext(int threads)
    : RuntimeContext(withThreads(threads)) {}

RuntimeContext::RuntimeContext(DefaultTag, RuntimeOptions opt)
    : RuntimeContext(std::move(opt)) {
  // The process-default context logs through the process-default sink, so
  // legacy setLogLevel()/logInfo() callers and context-threaded code that
  // happens to run on the default context see one coherent verbosity knob.
  sink_ = &defaultLogSink();
}

RuntimeContext& RuntimeContext::processDefault() {
  static RuntimeContext ctx(DefaultTag{}, RuntimeOptions{});
  return ctx;
}

}  // namespace ep
