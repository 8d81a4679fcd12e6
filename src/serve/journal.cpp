#include "serve/journal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "util/io.h"

namespace ep::serve {

namespace {

constexpr const char* kJobPrefix = "job_";
constexpr const char* kJsonSuffix = ".json";

std::string jobFileName(std::uint64_t id) {
  return kJobPrefix + std::to_string(id) + kJsonSuffix;
}

/// Ids of the "job_<id>.json" files in `dir`, ascending (ids start at 1).
std::vector<std::uint64_t> listJobIds(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  for (const io::NumberedFile& f :
       io::listNumberedFiles(dir, kJobPrefix, kJsonSuffix,
                             std::numeric_limits<std::uint64_t>::max())) {
    if (f.number > 0) ids.push_back(f.number);
  }
  return ids;
}

StatusOr<JsonValue> readJsonFile(const std::string& path) {
  const StatusOr<std::string> text = io::readFile(path);
  if (!text.ok()) return text.status();
  return parseJson(*text);
}

}  // namespace

Status JobStore::init() {
  std::error_code ec;
  for (const char* sub : {"/jobs", "/results", "/snaps"}) {
    std::filesystem::create_directories(root_ + sub, ec);
  }
  if (!std::filesystem::is_directory(root_ + "/jobs", ec)) {
    return Status::ioError("cannot create job store under " + root_);
  }
  return Status::okStatus();
}

std::string JobStore::snapshotDirFor(std::uint64_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/snaps/job_%llu",
                static_cast<unsigned long long>(id));
  return root_ + buf;
}

Status JobStore::writePending(std::uint64_t id, const JobSpec& spec) {
  JsonValue v = jobSpecToJson(spec);
  v.set("id", JsonValue::number(static_cast<double>(id)));
  // ep::io owns the tmp -> fsync -> rename -> parent-fsync recipe plus
  // bounded retry; transient storage hiccups never bounce an admission.
  return io::writeFileDurably(root_ + "/jobs/" + jobFileName(id),
                              writeJson(v) + "\n", faults_);
}

void JobStore::removePending(std::uint64_t id) {
  std::remove((root_ + "/jobs/" + jobFileName(id)).c_str());
}

Status JobStore::writeResult(const JobOutcome& outcome) {
  return io::writeFileDurably(root_ + "/results/" + jobFileName(outcome.id),
                              writeJson(outcomeToJson(outcome)) + "\n",
                              faults_);
}

bool JobStore::hasResult(std::uint64_t id) const {
  std::error_code ec;
  return std::filesystem::exists(root_ + "/results/" + jobFileName(id), ec);
}

StatusOr<JobOutcome> JobStore::readResult(std::uint64_t id) const {
  const auto v = readJsonFile(root_ + "/results/" + jobFileName(id));
  if (!v.ok()) return v.status();
  JobOutcome out;
  const Status s = outcomeFromJson(*v, &out);
  if (!s.ok()) return s;
  return out;
}

std::vector<JobStore::PendingJob> JobStore::recoverPending(
    int* corrupt) const {
  std::vector<PendingJob> pending;
  int bad = 0;
  for (const std::uint64_t id : listJobIds(root_ + "/jobs")) {
    if (hasResult(id)) continue;  // finished; journal removal raced the kill
    const auto v = readJsonFile(root_ + "/jobs/" + jobFileName(id));
    if (!v.ok()) {
      ++bad;
      continue;
    }
    PendingJob p;
    p.id = id;
    if (!jobSpecFromJson(*v, &p.spec).ok()) {
      ++bad;
      continue;
    }
    pending.push_back(std::move(p));
  }
  if (corrupt != nullptr) *corrupt = bad;
  return pending;
}

std::uint64_t JobStore::maxJobId() const {
  std::uint64_t mx = 0;
  for (const char* sub : {"/jobs", "/results"}) {
    const auto ids = listJobIds(root_ + sub);
    if (!ids.empty()) mx = std::max(mx, ids.back());
  }
  return mx;
}

}  // namespace ep::serve
