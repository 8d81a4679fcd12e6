// eplace_regress — noise-aware quality/perf regression gate over RunRecords.
//
// Diffs one or more candidate run records (produced by eplace_cli
// --record-out, the serve daemon, or bench runs) against a committed
// baseline. Deterministic fields (HPWL bits, iterations, overflow, retry and
// rollback counts at fixed seed/threads) must match bit-for-bit; wall-clock
// fields compare the median of the candidates against a one-sided percentage
// band so scheduler noise cannot flake the gate while a real slowdown still
// fails it.
//
// Usage:
//   eplace_regress --baseline tests/baselines/cli_demo.json
//                  --candidate run1.json [--candidate run2.json ...]
//                  [--wall-band 0.5] [--min-wall-ms 20] [--no-wall]
//                  [--update]
//   eplace_regress --delta <old> <new> [--delta <old> <new> ...]
//
// Exit codes: 0 gate passed, 1 gate failed, 2 usage / I/O error.
//
// --update (or EP_UPDATE_BASELINES=1 in the environment) rewrites the
// baseline from the first candidate instead of comparing — the same
// regeneration workflow as the goldens (EP_UPDATE_GOLDENS). It first
// prints the markdown delta table of the baseline it replaces: final HPWL
// and per-stage iterations, old -> new with the relative delta.
//
// --delta prints that table for pairs of files without writing anything:
// run records, or the flat JSON goldens of tests/goldens (every numeric
// member). A value whose bits did not change prints as `value (=)`, so the
// table of a file against itself holds no `->`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/io.h"
#include "util/run_record.h"
#include "util/status.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline <file> --candidate <file> "
               "[--candidate <file> ...]\n"
               "          [--wall-band <frac>] [--min-wall-ms <ms>] "
               "[--no-wall] [--update]\n"
               "       %s --delta <old> <new> [--delta <old> <new> ...]\n",
               argv0, argv0);
  return 2;
}

/// Prints the delta table row of one old/new pair, with a header whenever
/// the columns differ from the previous row's. False (after a message on
/// stderr) when either file cannot be read or parsed.
bool printDelta(const std::string& oldPath, const std::string& newPath,
                std::vector<ep::DeltaField>* lastFields) {
  std::vector<ep::DeltaField> fields;
  std::string label = std::filesystem::path(oldPath).stem().string();
  ep::StatusOr<ep::RunRecord> oldRec = ep::readRunRecordFile(oldPath);
  if (oldRec.ok()) {
    ep::StatusOr<ep::RunRecord> newRec = ep::readRunRecordFile(newPath);
    if (!newRec.ok()) {
      std::fprintf(stderr, "%s: %s\n", newPath.c_str(),
                   newRec.status().toString().c_str());
      return false;
    }
    fields = ep::runRecordDeltaFields(oldRec.value(), newRec.value());
  } else {
    const ep::StatusOr<std::string> oldText = ep::io::readFile(oldPath);
    const ep::StatusOr<std::string> newText = ep::io::readFile(newPath);
    if (!oldText.ok() || !newText.ok()) {
      std::fprintf(stderr, "cannot read %s or %s\n", oldPath.c_str(),
                   newPath.c_str());
      return false;
    }
    ep::StatusOr<std::vector<ep::DeltaField>> json =
        ep::jsonDeltaFields(oldText.value(), newText.value());
    if (!json.ok()) {
      std::fprintf(stderr, "%s vs %s: %s\n", oldPath.c_str(),
                   newPath.c_str(), json.status().toString().c_str());
      return false;
    }
    fields = std::move(json).value();
  }
  bool sameColumns = fields.size() == lastFields->size();
  for (std::size_t i = 0; sameColumns && i < fields.size(); ++i) {
    sameColumns = fields[i].name == (*lastFields)[i].name;
  }
  if (!sameColumns) std::fputs(ep::deltaTableHeader(fields).c_str(), stdout);
  std::fputs(ep::deltaTableRow(label, fields).c_str(), stdout);
  *lastFields = std::move(fields);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselinePath;
  std::vector<std::string> candidatePaths;
  std::vector<std::pair<std::string, std::string>> deltaPairs;
  ep::RegressPolicy policy;
  bool update = false;
  if (const char* env = std::getenv("EP_UPDATE_BASELINES");
      env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    update = true;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baselinePath = argv[++i];
    } else if (arg == "--candidate" && i + 1 < argc) {
      candidatePaths.emplace_back(argv[++i]);
    } else if (arg == "--wall-band" && i + 1 < argc) {
      policy.wallBandFrac = std::atof(argv[++i]);
    } else if (arg == "--min-wall-ms" && i + 1 < argc) {
      policy.minWallMs = std::atof(argv[++i]);
    } else if (arg == "--no-wall") {
      policy.checkWall = false;
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--delta" && i + 2 < argc) {
      deltaPairs.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!deltaPairs.empty()) {
    std::vector<ep::DeltaField> lastFields;
    for (const auto& [oldPath, newPath] : deltaPairs) {
      if (!printDelta(oldPath, newPath, &lastFields)) return 2;
    }
    return 0;
  }
  if (baselinePath.empty() || candidatePaths.empty()) return usage(argv[0]);

  std::vector<ep::RunRecord> candidates;
  candidates.reserve(candidatePaths.size());
  for (const std::string& path : candidatePaths) {
    ep::StatusOr<ep::RunRecord> rec = ep::readRunRecordFile(path);
    if (!rec.ok()) {
      std::fprintf(stderr, "candidate %s: %s\n", path.c_str(),
                   rec.status().toString().c_str());
      return 2;
    }
    candidates.push_back(std::move(rec).value());
  }

  if (update) {
    std::vector<ep::DeltaField> noColumns;
    if (std::filesystem::exists(baselinePath) &&
        !printDelta(baselinePath, candidatePaths[0], &noColumns)) {
      return 2;
    }
    const ep::Status wr = ep::writeRunRecordFile(baselinePath, candidates[0]);
    if (!wr.ok()) {
      std::fprintf(stderr, "baseline update %s: %s\n", baselinePath.c_str(),
                   wr.toString().c_str());
      return 2;
    }
    std::printf("baseline updated: %s (from %s)\n", baselinePath.c_str(),
                candidatePaths[0].c_str());
    return 0;
  }

  ep::StatusOr<ep::RunRecord> baseline = ep::readRunRecordFile(baselinePath);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline %s: %s\n", baselinePath.c_str(),
                 baseline.status().toString().c_str());
    return 2;
  }

  const ep::RegressResult res =
      ep::compareRunRecords(baseline.value(), candidates, policy);
  const std::string report = res.summary();
  if (!report.empty()) std::fputs(report.c_str(), stdout);
  if (res.pass) {
    std::printf("regression gate PASSED: %s vs %zu candidate run(s)\n",
                baselinePath.c_str(), candidates.size());
    return 0;
  }
  std::printf("regression gate FAILED: %s vs %zu candidate run(s)\n",
              baselinePath.c_str(), candidates.size());
  return 1;
}
