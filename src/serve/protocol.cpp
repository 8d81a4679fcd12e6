#include "serve/protocol.h"

#include "util/run_record.h"

namespace ep::serve {

namespace {

/// Non-negative integral JSON number -> u64 (ids, counts, seeds). Rejects
/// negatives, fractions, and values past 2^53 (not exactly representable).
bool toU64(const JsonValue& v, std::uint64_t* out) {
  if (!v.isNumber()) return false;
  const double d = v.asNumber();
  if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d)) ||
      d > 9.007199254740992e15) {
    return false;
  }
  *out = static_cast<std::uint64_t>(d);
  return true;
}

}  // namespace

Status jobSpecFromJson(const JsonValue& v, JobSpec* out) {
  if (!v.isObject()) return Status::invalidInput("job must be an object");
  *out = JobSpec{};
  out->name = v.getString("name");
  out->auxPath = v.getString("aux");
  if (const JsonValue* gen = v.find("gen")) {
    if (!gen->isObject()) {
      return Status::invalidInput("job.gen must be an object");
    }
    out->hasGen = true;
    std::uint64_t u = 0;
    if (const JsonValue* c = gen->find("cells")) {
      if (!toU64(*c, &u) || u == 0 || u > 2'000'000) {
        return Status::invalidInput("job.gen.cells out of range");
      }
      out->gen.numCells = u;
    }
    if (const JsonValue* m = gen->find("macros")) {
      if (!toU64(*m, &u) || u > 1000) {
        return Status::invalidInput("job.gen.macros out of range");
      }
      out->gen.numMovableMacros = u;
    }
    if (const JsonValue* s = gen->find("seed")) {
      if (!toU64(*s, &u)) {
        return Status::invalidInput("job.gen.seed must be a non-negative "
                                    "integer");
      }
      out->gen.seed = u;
    }
  }
  if (out->auxPath.empty() && !out->hasGen) {
    return Status::invalidInput("job needs either \"aux\" or \"gen\"");
  }
  if (!out->auxPath.empty() && out->hasGen) {
    return Status::invalidInput("job has both \"aux\" and \"gen\"");
  }
  if (const JsonValue* p = v.find("priority")) {
    if (!p->isNumber()) return Status::invalidInput("priority not a number");
    const double d = p->asNumber();
    if (d < -1000 || d > 1000 || d != static_cast<double>(static_cast<int>(d))) {
      return Status::invalidInput("priority out of range");
    }
    out->priority = static_cast<int>(d);
  }
  out->deadlineSeconds = v.getNumber("deadline", 0.0);
  if (out->deadlineSeconds < 0) {
    return Status::invalidInput("deadline must be >= 0");
  }
  const double threads = v.getNumber("threads", 1.0);
  if (threads < 1 || threads > 256) {
    return Status::invalidInput("threads out of range");
  }
  out->threads = static_cast<int>(threads);
  const double saveEvery = v.getNumber("save_every", 0.0);
  if (saveEvery < 0 || saveEvery > 1e6) {
    return Status::invalidInput("save_every out of range");
  }
  out->saveEvery = static_cast<int>(saveEvery);
  const double gpIters = v.getNumber("gp_max_iterations", 0.0);
  if (gpIters < 0 || gpIters > 1e6) {
    return Status::invalidInput("gp_max_iterations out of range");
  }
  out->gpMaxIterations = static_cast<int>(gpIters);
  out->runDetail = v.getBool("run_detail", true);
  if (const JsonValue* mb = v.find("mem_budget_mb")) {
    std::uint64_t u = 0;
    if (!toU64(*mb, &u) || u > 1'000'000) {
      return Status::invalidInput("mem_budget_mb out of range");
    }
    out->memBudgetMb = u;
  }
  if (const JsonValue* inj = v.find("inject")) {
    if (!inj->isArray()) return Status::invalidInput("inject must be a list");
    for (const JsonValue& e : inj->items()) {
      if (!e.isObject()) {
        return Status::invalidInput("inject entry must be an object");
      }
      InjectSpec is;
      is.site = e.getString("site");
      if (is.site.empty()) {
        return Status::invalidInput("inject entry needs a site");
      }
      if (!faultKindFromName(e.getString("kind", "nan"), &is.spec.kind)) {
        return Status::invalidInput(
            "inject kind must be nan|spike|trunc|error");
      }
      is.spec.atTick = static_cast<long>(e.getNumber("tick", 0.0));
      is.spec.count = static_cast<int>(e.getNumber("count", 1.0));
      if (const JsonValue* mag = e.find("magnitude")) {
        is.spec.magnitude = mag->asNumber();
      }
      out->injections.push_back(std::move(is));
    }
  }
  return Status::okStatus();
}

JsonValue jobSpecToJson(const JobSpec& spec) {
  JsonValue v = JsonValue::object();
  if (!spec.name.empty()) v.set("name", JsonValue::str(spec.name));
  if (!spec.auxPath.empty()) v.set("aux", JsonValue::str(spec.auxPath));
  if (spec.hasGen) {
    JsonValue gen = JsonValue::object();
    gen.set("cells", JsonValue::number(static_cast<double>(spec.gen.numCells)));
    gen.set("macros",
            JsonValue::number(static_cast<double>(spec.gen.numMovableMacros)));
    gen.set("seed", JsonValue::number(static_cast<double>(spec.gen.seed)));
    v.set("gen", std::move(gen));
  }
  v.set("priority", JsonValue::number(spec.priority));
  if (spec.deadlineSeconds > 0) {
    v.set("deadline", JsonValue::number(spec.deadlineSeconds));
  }
  v.set("threads", JsonValue::number(spec.threads));
  if (spec.saveEvery > 0) {
    v.set("save_every", JsonValue::number(spec.saveEvery));
  }
  if (spec.gpMaxIterations > 0) {
    v.set("gp_max_iterations", JsonValue::number(spec.gpMaxIterations));
  }
  if (!spec.runDetail) v.set("run_detail", JsonValue::boolean(false));
  if (spec.memBudgetMb > 0) {
    v.set("mem_budget_mb",
          JsonValue::number(static_cast<double>(spec.memBudgetMb)));
  }
  if (!spec.injections.empty()) {
    JsonValue arr = JsonValue::array();
    for (const InjectSpec& is : spec.injections) {
      JsonValue e = JsonValue::object();
      e.set("site", JsonValue::str(is.site));
      e.set("kind", JsonValue::str(faultKindName(is.spec.kind)));
      e.set("tick", JsonValue::number(static_cast<double>(is.spec.atTick)));
      e.set("count", JsonValue::number(is.spec.count));
      e.set("magnitude", JsonValue::number(is.spec.magnitude));
      arr.push(std::move(e));
    }
    v.set("inject", std::move(arr));
  }
  return v;
}

JsonValue outcomeToJson(const JobOutcome& out) {
  JsonValue v = JsonValue::object();
  v.set("id", JsonValue::number(static_cast<double>(out.id)));
  v.set("name", JsonValue::str(out.name));
  v.set("status", JsonValue::str(statusCodeName(out.status.code())));
  if (!out.status.ok()) {
    v.set("status_message", JsonValue::str(out.status.message()));
  }
  v.set("hpwl", JsonValue::number(out.finalHpwl));
  v.set("hpwl_bits", JsonValue::str(hexBits64(out.hpwlBits)));
  v.set("legal", JsonValue::boolean(out.legal));
  v.set("wall_seconds", JsonValue::number(out.wallSeconds));
  v.set("queue_wait_seconds", JsonValue::number(out.queueWaitSeconds));
  v.set("retries", JsonValue::number(out.retries));
  v.set("recoveries", JsonValue::number(out.recoveries));
  v.set("resumed", JsonValue::boolean(out.resumed));
  if (out.peakBytes > 0) {
    v.set("peak_bytes", JsonValue::number(static_cast<double>(out.peakBytes)));
  }
  if (!out.record.isNull()) v.set("record", out.record);
  return v;
}

Status outcomeFromJson(const JsonValue& v, JobOutcome* out) {
  if (!v.isObject()) return Status::invalidInput("outcome must be an object");
  *out = JobOutcome{};
  const JsonValue* id = v.find("id");
  if (id == nullptr || !toU64(*id, &out->id)) {
    return Status::invalidInput("outcome.id missing or malformed");
  }
  out->name = v.getString("name");
  StatusCode code = StatusCode::kOk;
  if (!statusCodeFromName(v.getString("status", "Ok"), &code)) {
    return Status::invalidInput("outcome.status unknown");
  }
  out->status = code == StatusCode::kOk
                    ? Status::okStatus()
                    : Status(code, v.getString("status_message"));
  out->finalHpwl = v.getNumber("hpwl", 0.0);
  if (v.find("hpwl_bits") != nullptr &&
      !parseHexBits64(v.getString("hpwl_bits"), &out->hpwlBits)) {
    return Status::invalidInput("outcome.hpwl_bits malformed");
  }
  out->legal = v.getBool("legal", false);
  out->wallSeconds = v.getNumber("wall_seconds", 0.0);
  out->queueWaitSeconds = v.getNumber("queue_wait_seconds", 0.0);
  out->retries = static_cast<int>(v.getNumber("retries", 0.0));
  out->recoveries = static_cast<int>(v.getNumber("recoveries", 0.0));
  out->resumed = v.getBool("resumed", false);
  if (const JsonValue* pb = v.find("peak_bytes")) {
    if (!toU64(*pb, &out->peakBytes)) {
      return Status::invalidInput("outcome.peak_bytes malformed");
    }
  }
  if (const JsonValue* rec = v.find("record")) {
    if (!rec->isObject()) {
      return Status::invalidInput("outcome.record must be an object");
    }
    out->record = *rec;
  }
  return Status::okStatus();
}

StatusOr<Request> parseRequestLine(std::string_view line,
                                   std::size_t maxBytes) {
  if (maxBytes > 0 && line.size() > maxBytes) {
    return Status::invalidInput("request line exceeds " +
                                std::to_string(maxBytes) + " bytes");
  }
  const StatusOr<JsonValue> parsed = parseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = *parsed;
  if (!v.isObject()) {
    return Status::invalidInput("request must be a JSON object");
  }
  Request req;
  const std::string op = v.getString("op");
  const bool needsId =
      op == "cancel" || op == "result" || op == "wait" || op == "watch";
  if (op == "ping") {
    req.op = Request::Op::kPing;
  } else if (op == "submit") {
    req.op = Request::Op::kSubmit;
  } else if (op == "cancel") {
    req.op = Request::Op::kCancel;
  } else if (op == "result") {
    req.op = Request::Op::kResult;
  } else if (op == "wait") {
    req.op = Request::Op::kWait;
  } else if (op == "watch") {
    req.op = Request::Op::kWatch;
  } else if (op == "stats") {
    req.op = Request::Op::kStats;
  } else if (op == "shutdown") {
    req.op = Request::Op::kShutdown;
  } else {
    return Status::invalidInput(op.empty() ? "request has no \"op\""
                                           : "unknown op \"" + op + "\"");
  }
  if (needsId) {
    const JsonValue* id = v.find("id");
    if (id == nullptr || !toU64(*id, &req.id)) {
      return Status::invalidInput("\"" + op +
                                  "\" needs a non-negative integer \"id\"");
    }
  }
  if (req.op == Request::Op::kWait) {
    req.timeoutSeconds = v.getNumber("timeout", 0.0);
    if (req.timeoutSeconds < 0) {
      return Status::invalidInput("wait timeout must be >= 0");
    }
  }
  if (req.op == Request::Op::kSubmit) {
    const JsonValue* job = v.find("job");
    if (job == nullptr) {
      return Status::invalidInput("submit needs a \"job\" object");
    }
    const Status s = jobSpecFromJson(*job, &req.job);
    if (!s.ok()) return s;
  }
  return req;
}

JsonValue okResponse() {
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::boolean(true));
  return v;
}

JsonValue errorResponse(const Status& s) {
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::boolean(false));
  v.set("error", JsonValue::str(statusCodeName(s.code())));
  v.set("code", JsonValue::number(statusExitCode(s.code())));
  v.set("message", JsonValue::str(s.message()));
  return v;
}

Status statusFromResponse(const JsonValue& v) {
  if (!v.isObject()) {
    return Status::invalidInput("response is not a JSON object");
  }
  if (v.getBool("ok", false)) return Status::okStatus();
  StatusCode code = StatusCode::kInternal;
  if (!statusCodeFromName(v.getString("error"), &code)) {
    return Status::invalidInput("response carries no recognizable error: " +
                                writeJson(v));
  }
  return Status(code, v.getString("message"));
}

}  // namespace ep::serve
