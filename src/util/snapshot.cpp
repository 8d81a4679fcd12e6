#include "util/snapshot.h"

#include <array>
#include <cstring>

#include "util/fault_injector.h"
#include "util/io.h"

namespace ep {

namespace {

constexpr char kMagic[8] = {'E', 'P', 'S', 'N', 'A', 'P', 'S', 'H'};
constexpr std::uint32_t kVersion = 1;

Status badSnapshot(const std::string& path, const std::string& why) {
  return Status::invalidInput("snapshot " + path + ": " + why);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (const std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::doubles(std::span<const double> v) {
  u64(v.size());
  for (const double d : v) f64(d);
}

bool ByteReader::take(std::size_t n, const std::uint8_t** out) {
  if (fail_ || data_.size() - pos_ < n) {
    fail_ = true;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p = nullptr;
  return take(1, &p) ? *p : 0;
}

std::uint32_t ByteReader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (fail_ || remaining() < n) {
    fail_ = true;
    return {};
  }
  const std::uint8_t* p = nullptr;
  take(n, &p);
  return {reinterpret_cast<const char*>(p), n};
}

std::vector<double> ByteReader::doubles() {
  const std::uint64_t n = u64();
  // Bound against the remaining bytes before allocating: a corrupt count
  // must not turn into a multi-gigabyte allocation.
  if (fail_ || remaining() / sizeof(double) < n) {
    fail_ = true;
    return {};
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& d : v) d = f64();
  return v;
}

Status writeSnapshotFile(const std::string& path, const SnapshotData& snap,
                         FaultInjector* faults) {
  // Assemble the whole file in memory; sections are small (positions +
  // optimizer vectors), and a single write keeps the tmp file consistent.
  std::vector<std::uint8_t> file(kMagic, kMagic + sizeof kMagic);
  {
    ByteWriter head;
    head.u32(kVersion);
    head.u32(static_cast<std::uint32_t>(snap.sections.size()));
    const auto& h = head.bytes();
    file.insert(file.end(), h.begin(), h.end());
  }
  for (const auto& [name, payload] : snap.sections) {
    ByteWriter sec;
    sec.str(name);
    sec.u64(payload.size());
    sec.u32(crc32(payload));
    const auto& s = sec.bytes();
    file.insert(file.end(), s.begin(), s.end());
    file.insert(file.end(), payload.begin(), payload.end());
  }

  // Fault site "snapshot.write": flip one bit (kNaN/kSpike) or truncate the
  // serialized stream (kTruncate) so readers' rejection paths are testable.
  if (faults != nullptr && faults->active()) {
    if (const FaultSpec* f = faults->fire("snapshot.write")) {
      if (f->kind == FaultKind::kTruncate) {
        file.resize(file.size() / 2);
      } else {
        faults->corruptBytes(file, *f);
      }
    }
  }

  // The tmp+fsync+rename recipe (and the io.* fault sites / retry policy
  // that make it testable) lives in ep::io.
  return io::writeFileDurably(path, file.data(), file.size(), faults);
}

StatusOr<SnapshotData> readSnapshotFile(const std::string& path) {
  const StatusOr<std::string> file = io::readFile(path);
  if (!file.ok()) return file.status();
  if (file->size() < sizeof kMagic ||
      std::memcmp(file->data(), kMagic, sizeof kMagic) != 0) {
    return badSnapshot(path, "bad magic (not a snapshot file)");
  }
  ByteReader r(std::span(reinterpret_cast<const std::uint8_t*>(file->data()),
                         file->size())
                   .subspan(sizeof kMagic));
  const std::uint32_t version = r.u32();
  if (r.ok() && version != kVersion) {
    return badSnapshot(path,
                       "unsupported version " + std::to_string(version));
  }
  const std::uint32_t count = r.u32();
  SnapshotData snap;
  for (std::uint32_t i = 0; r.ok() && i < count; ++i) {
    const std::string name = r.str();
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    if (!r.ok() || r.remaining() < len) {
      return badSnapshot(path, "truncated section '" + name + "'");
    }
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
    for (auto& b : payload) b = r.u8();
    if (crc32(payload) != crc) {
      return badSnapshot(path, "CRC mismatch in section '" + name +
                                   "' (corrupt or bit-flipped)");
    }
    snap.add(name, std::move(payload));
  }
  if (!r.ok()) return badSnapshot(path, "truncated file");
  if (snap.sections.size() != count) {
    return badSnapshot(path, "duplicate section names");
  }
  return snap;
}

}  // namespace ep
