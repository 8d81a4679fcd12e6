// eplace_loadgen — deterministic load + isolation harness for eplace_serve.
//
//   eplace_loadgen --socket <path> [options]
//     --jobs <n>          total requests to issue (default 200)
//     --seed <s>          RNG seed for the mix (default 1)
//     --combos <k>        distinct circuits cycled through (default 6)
//     --cells <n>         cells per generated circuit (default 240)
//     --gp-iters <n>      GP iteration cap per job (default 60)
//     --timeout <sec>     per-job wait bound (default 120)
//     --shutdown          gracefully shut the daemon down at the end
//     --verbose           per-job chatter
//
// The mix is deterministic for a given seed: ~10% of requests are malformed
// or oversized protocol lines (expect a typed rejection, daemon stays up),
// ~10% are fault-armed jobs (a NaN/spike injected into that job's own
// session), ~10% are cancelled right after submission, the rest are clean.
// The harness first computes each circuit's SOLO reference placement
// in-process, then asserts every clean daemon job reproduced the reference
// HPWL BIT-FOR-BIT — the isolation guarantee: poisoned, cancelled and
// malformed neighbors must not move a single ULP of anyone else's result.
// Queue-full submissions must come back as immediate ResourceExhausted
// rejections (admission never blocks); they are retried as slots free up.
// Exit code: 0 = all assertions held, 1 = violation.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "eplace/session.h"
#include "gen/generator.h"
#include "serve/client.h"
#include "util/io.h"
#include "util/jsonlite.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

struct Reference {
  std::uint64_t hpwlBits = 0;
  bool legal = false;
  bool ok = false;
};

struct Mix {
  int jobs = 200;
  std::uint64_t seed = 1;
  int combos = 6;
  int cells = 240;
  int gpIters = 60;
  double waitTimeout = 120.0;
  bool shutdown = false;
  bool verbose = false;
  std::string socket;
};

enum class Role { kClean, kFault, kCancel, kMalformed };

const char* roleName(Role r) {
  switch (r) {
    case Role::kClean: return "clean";
    case Role::kFault: return "fault";
    case Role::kCancel: return "cancel";
    case Role::kMalformed: return "malformed";
  }
  return "?";
}

/// Solo in-process run with EXACTLY the job's placement configuration
/// (supervised flow, same GP cap, detail off) — the bit-exact oracle.
Reference soloReference(const Mix& mix, int combo) {
  ep::SessionOptions so;
  so.name = "solo_" + std::to_string(combo);
  so.threads = 1;
  so.logLevel = ep::LogLevel::kOff;
  so.supervised = true;
  so.flow.gp.maxIterations = mix.gpIters;
  so.flow.runDetail = false;
  ep::PlacerSession session(so);
  ep::GenSpec gs;
  gs.name = so.name;
  gs.numCells = static_cast<std::size_t>(mix.cells);
  gs.seed = mix.seed * 1000 + static_cast<std::uint64_t>(combo);
  Reference ref;
  if (!session.adopt(ep::generateCircuit(gs)).ok()) return ref;
  const auto res = session.place();
  if (!res.ok()) return ref;
  ref.hpwlBits = std::bit_cast<std::uint64_t>(res->finalHpwl);
  ref.legal = res->legality.legal;
  ref.ok = res->status.ok();
  return ref;
}

ep::serve::JobSpec jobFor(const Mix& mix, int combo, int priority) {
  ep::serve::JobSpec spec;
  spec.hasGen = true;
  spec.gen.numCells = static_cast<std::uint64_t>(mix.cells);
  spec.gen.seed = mix.seed * 1000 + static_cast<std::uint64_t>(combo);
  spec.priority = priority;
  spec.threads = 1;
  spec.gpMaxIterations = mix.gpIters;
  spec.runDetail = false;
  return spec;
}

/// A malformed/adversarial line drawn from a fixed corpus or by mutating a
/// valid submit request (seeded, reproducible).
std::string malformedLine(ep::Rng& rng, const std::string& validLine) {
  static const char* kCorpus[] = {
      "",
      "{",
      "not json at all",
      "[1,2,3]",
      "{\"op\":\"submit\"}",
      "{\"op\":\"launch_missiles\"}",
      "{\"op\":\"submit\",\"job\":{}}",
      "{\"op\":\"submit\",\"job\":{\"gen\":{\"cells\":-5}}}",
      "{\"op\":\"wait\",\"id\":\"twelve\"}",
      "{\"op\":\"cancel\"}",
      "{\"op\":42}",
      "{\"op\":\"submit\",\"job\":{\"aux\":\"x\",\"gen\":{}}}",
      "{\"op\":\"ping\",\"junk\":\"\\udead\"}",
      "\x00\x01\x02garbage",
  };
  const std::size_t pick = static_cast<std::size_t>(
      rng.below(std::size(kCorpus) + 2));
  if (pick < std::size(kCorpus)) return kCorpus[pick];
  // Mutate a valid line: truncate or flip one byte.
  std::string line = validLine;
  if (line.empty()) return "{";
  if (pick == std::size(kCorpus)) {
    line.resize(line.size() / 2);
  } else {
    const std::size_t idx = static_cast<std::size_t>(rng.below(line.size()));
    line[idx] = static_cast<char>(line[idx] ^ (1 << rng.below(7)));
    if (line[idx] == '\n') line[idx] = '}';
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  Mix mix;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      mix.socket = argv[++i];
    } else if (a == "--jobs" && i + 1 < argc) {
      mix.jobs = std::atoi(argv[++i]);
    } else if (a == "--seed" && i + 1 < argc) {
      mix.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--combos" && i + 1 < argc) {
      mix.combos = std::atoi(argv[++i]);
    } else if (a == "--cells" && i + 1 < argc) {
      mix.cells = std::atoi(argv[++i]);
    } else if (a == "--gp-iters" && i + 1 < argc) {
      mix.gpIters = std::atoi(argv[++i]);
    } else if (a == "--timeout" && i + 1 < argc) {
      mix.waitTimeout = std::atof(argv[++i]);
    } else if (a == "--shutdown") {
      mix.shutdown = true;
    } else if (a == "--verbose") {
      mix.verbose = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 1;
    }
  }
  if (mix.socket.empty()) {
    std::fprintf(stderr, "usage: eplace_loadgen --socket <path> [options]\n");
    return 1;
  }

  ep::serve::ServeClient client;
  if (const ep::Status s = client.connect(mix.socket, 10.0); !s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.toString().c_str());
    return 1;
  }
  if (const ep::Status s = client.ping(); !s.ok()) {
    std::fprintf(stderr, "ping: %s\n", s.toString().c_str());
    return 1;
  }

  std::printf("loadgen: computing %d solo reference placement(s)...\n",
              mix.combos);
  std::vector<Reference> refs;
  refs.reserve(static_cast<std::size_t>(mix.combos));
  for (int c = 0; c < mix.combos; ++c) refs.push_back(soloReference(mix, c));

  ep::Rng rng(mix.seed);
  struct Submitted {
    std::uint64_t id;
    int combo;
    Role role;
  };
  std::vector<Submitted> inFlight;
  int malformedSent = 0, malformedTypedRejections = 0;
  int queueFullRejections = 0, submitRetriesExhausted = 0;
  int faultArmed = 0, cancelsSent = 0;
  double worstSubmitSeconds = 0.0;
  int violations = 0;

  for (int i = 0; i < mix.jobs; ++i) {
    const int combo = i % mix.combos;
    const int priority = static_cast<int>(rng.below(4));
    Role role = Role::kClean;
    switch (i % 10) {
      case 3: role = Role::kMalformed; break;
      case 6: role = Role::kFault; break;
      case 9: role = Role::kCancel; break;
      default: break;
    }
    ep::serve::JobSpec spec = jobFor(mix, combo, priority);
    spec.name = std::string(roleName(role)) + "_" + std::to_string(i);

    if (role == Role::kMalformed) {
      ep::JsonValue req = ep::JsonValue::object();
      req.set("op", ep::JsonValue::str("submit"));
      req.set("job", ep::serve::jobSpecToJson(spec));
      const std::string bad = malformedLine(rng, ep::writeJson(req));
      ++malformedSent;
      const auto raw = client.callRaw(bad, 30.0);
      if (!raw.ok()) {
        // Daemon dropped the connection (allowed for unframeable input);
        // it must still accept a fresh one.
        if (!client.connect(mix.socket, 10.0).ok() || !client.ping().ok()) {
          std::fprintf(stderr, "FAIL: daemon gone after malformed line\n");
          return 1;
        }
        ++malformedTypedRejections;
        continue;
      }
      const auto resp = ep::parseJson(*raw);
      if (!resp.ok() || resp->getBool("ok", true)) {
        // A mutated line can still be a VALID submit — accept that case.
        if (resp.ok() && resp->getBool("ok", false) &&
            resp->getNumber("id", 0) >= 1) {
          inFlight.push_back({static_cast<std::uint64_t>(
                                  resp->getNumber("id", 0)),
                              combo, Role::kCancel});  // treat loosely
          continue;
        }
        std::fprintf(stderr, "FAIL: malformed line got a non-typed reply\n");
        ++violations;
        continue;
      }
      ++malformedTypedRejections;
      continue;
    }

    if (role == Role::kFault) {
      ep::serve::InjectSpec inj;
      inj.site = rng.chance(0.5) ? "nesterov.grad" : "fft.forward";
      inj.spec.kind = rng.chance(0.5) ? ep::FaultKind::kNaN
                                      : ep::FaultKind::kSpike;
      inj.spec.atTick = static_cast<long>(rng.below(20));
      inj.spec.count = 2;
      spec.injections.push_back(inj);
      ++faultArmed;
    }

    // Admission must never block: a full queue is an immediate typed
    // rejection, retried here as capacity frees up.
    std::uint64_t id = 0;
    bool accepted = false;
    for (int attempt = 0; attempt < 500; ++attempt) {
      ep::Timer t;
      const auto sub = client.submit(spec);
      const double took = t.seconds();
      worstSubmitSeconds = std::max(worstSubmitSeconds, took);
      if (sub.ok()) {
        id = *sub;
        accepted = true;
        break;
      }
      if (sub.status().code() == ep::StatusCode::kResourceExhausted) {
        ++queueFullRejections;
        if (took > 5.0) {
          std::fprintf(stderr, "FAIL: queue-full rejection took %.1fs "
                               "(admission blocked)\n", took);
          ++violations;
        }
        // Drain one in-flight job, then retry.
        if (!inFlight.empty()) {
          (void)client.wait(inFlight.front().id, mix.waitTimeout);
        }
        continue;
      }
      std::fprintf(stderr, "submit %s: %s\n", spec.name.c_str(),
                   sub.status().toString().c_str());
      break;
    }
    if (!accepted) {
      ++submitRetriesExhausted;
      continue;
    }
    if (role == Role::kCancel) {
      ++cancelsSent;
      (void)client.cancel(id);
    }
    inFlight.push_back({id, combo, role});
    if (mix.verbose) {
      std::printf("  #%llu %s (combo %d, prio %d)\n",
                  static_cast<unsigned long long>(id), roleName(role), combo,
                  priority);
    }
  }

  std::printf("loadgen: %zu accepted, waiting...\n", inFlight.size());
  int cleanOk = 0, cleanMismatch = 0, faultTerminal = 0, cancelled = 0;
  for (const Submitted& s : inFlight) {
    const auto out = client.wait(s.id, mix.waitTimeout);
    if (!out.ok()) {
      std::fprintf(stderr, "FAIL: wait(%llu) -> %s\n",
                   static_cast<unsigned long long>(s.id),
                   out.status().toString().c_str());
      ++violations;
      continue;
    }
    switch (s.role) {
      case Role::kClean: {
        const Reference& ref = refs[static_cast<std::size_t>(s.combo)];
        if (!out->status.ok() || out->hpwlBits != ref.hpwlBits ||
            out->legal != ref.legal) {
          std::fprintf(stderr,
                       "FAIL: clean job %llu diverged from solo reference "
                       "(status %s, bits %016llx vs %016llx)\n",
                       static_cast<unsigned long long>(s.id),
                       statusCodeName(out->status.code()),
                       static_cast<unsigned long long>(out->hpwlBits),
                       static_cast<unsigned long long>(ref.hpwlBits));
          ++cleanMismatch;
          ++violations;
        } else {
          ++cleanOk;
        }
        break;
      }
      case Role::kFault:
        // Contract: typed terminal outcome (graceful recovery to Ok is
        // fine), never a wedged job or daemon crash.
        ++faultTerminal;
        break;
      case Role::kCancel:
        if (out->status.code() == ep::StatusCode::kCancelled) {
          ++cancelled;
        }  // Ok = the job outran the cancel; also legal.
        break;
      case Role::kMalformed:
        break;
    }
  }

  const auto stats = client.stats();
  if (stats.ok()) {
    std::printf("daemon queue %g/%g, counters: %s\n",
                stats->getNumber("queue_depth", -1),
                stats->getNumber("queue_capacity", -1),
                ep::writeJson(*stats->find("counters")).c_str());
  }
  if (mix.shutdown) {
    (void)client.shutdownDaemon();
  }

  std::printf(
      "loadgen summary: %d clean ok, %d clean MISMATCHED, %d fault jobs "
      "terminal, %d/%d cancels took effect, %d malformed sent (%d typed "
      "rejections), %d queue-full rejections (worst submit %.2fs), %d "
      "submits gave up, %d violations\n",
      cleanOk, cleanMismatch, faultTerminal, cancelled, cancelsSent,
      malformedSent, malformedTypedRejections, queueFullRejections,
      worstSubmitSeconds, submitRetriesExhausted, violations);
  if (malformedSent != malformedTypedRejections) {
    // Mutated-but-valid lines are counted above; anything else is a bug.
    std::printf("note: %d mutated line(s) parsed as valid requests\n",
                malformedSent - malformedTypedRejections);
  }

  // Machine-readable run summary, built with the shared jsonlite writer and
  // accumulated under bench_results/ alongside the bench run records.
  {
    ep::JsonValue sum = ep::JsonValue::object();
    sum.set("jobs", ep::JsonValue::number(mix.jobs));
    sum.set("clean_ok", ep::JsonValue::number(cleanOk));
    sum.set("clean_mismatched", ep::JsonValue::number(cleanMismatch));
    sum.set("fault_terminal", ep::JsonValue::number(faultTerminal));
    sum.set("cancels_sent", ep::JsonValue::number(cancelsSent));
    sum.set("cancels_effective", ep::JsonValue::number(cancelled));
    sum.set("malformed_sent", ep::JsonValue::number(malformedSent));
    sum.set("malformed_typed_rejections",
            ep::JsonValue::number(malformedTypedRejections));
    sum.set("queue_full_rejections",
            ep::JsonValue::number(queueFullRejections));
    sum.set("worst_submit_seconds",
            ep::JsonValue::number(worstSubmitSeconds));
    sum.set("submits_gave_up", ep::JsonValue::number(submitRetriesExhausted));
    sum.set("violations", ep::JsonValue::number(violations));
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const ep::Status wr = ep::io::writeFileDurably(
        "bench_results/loadgen_summary.json", ep::writeJson(sum) + "\n");
    if (!wr.ok()) {
      std::fprintf(stderr, "summary write failed: %s\n",
                   wr.toString().c_str());
    } else {
      std::printf("wrote bench_results/loadgen_summary.json\n");
    }
  }
  return violations == 0 ? 0 : 1;
}
