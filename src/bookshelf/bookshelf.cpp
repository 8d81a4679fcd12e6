#include "bookshelf/bookshelf.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "model/capacity.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "util/memory_budget.h"

namespace ep {

namespace {

std::string dirOf(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? std::string(".") : path.substr(0, pos);
}

/// Line-oriented scanner: skips comments (#...) and blanks, tracks the
/// 1-based line number for error locations, and implements the
/// "bookshelf.line" fault site (kTruncate = premature EOF).
class LineScanner {
 public:
  LineScanner(std::istream& in, std::string file, RuntimeContext& rc)
      : in_(in), file_(std::move(file)), rc_(rc) {}

  bool next(std::string& line) {
    FaultInjector& inj = rc_.faults();
    while (std::getline(in_, line)) {
      ++lineNo_;
      if (inj.active()) {
        if (const FaultSpec* f = inj.fire("bookshelf.line")) {
          if (f->kind == FaultKind::kTruncate) return false;
          // NaN/spike on a text stream degrade to garbling the line.
          line = line.substr(0, line.size() / 2);
        }
      }
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const auto b = line.find_first_not_of(" \t\r\n");
      if (b == std::string::npos) continue;
      const auto e = line.find_last_not_of(" \t\r\n");
      line = line.substr(b, e - b + 1);
      if (!line.empty()) return true;
    }
    return false;
  }

  [[nodiscard]] int line() const { return lineNo_; }
  [[nodiscard]] const std::string& file() const { return file_; }

  /// "file:line: msg" as an InvalidInput status.
  [[nodiscard]] Status fail(const std::string& msg) const {
    std::ostringstream os;
    os << file_ << ":" << lineNo_ << ": " << msg;
    rc_.log().warn("bookshelf: %s", os.str().c_str());
    return Status::invalidInput(os.str());
  }

 private:
  std::istream& in_;
  std::string file_;
  RuntimeContext& rc_;
  int lineNo_ = 0;
};

Status ioFail(RuntimeContext& rc, const std::string& msg) {
  rc.log().warn("bookshelf: %s", msg.c_str());
  return Status::ioError(msg);
}

/// Splits "Key : v1 v2" into tokens with ':' treated as whitespace.
/// Zero-allocation: the views alias the caller's line buffer (valid until
/// the next LineScanner::next), and `out` is reused across lines — at
/// 100k+ cells the per-line istringstream of the old tokenizer dominated
/// parse time.
void splitTokens(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  const auto isDelim = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ':';
  };
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && isDelim(line[i])) ++i;
    const std::size_t b = i;
    while (i < line.size() && !isDelim(line[i])) ++i;
    if (i > b) out.push_back(line.substr(b, i - b));
  }
}

/// from_chars with a full-consumption check — "12abc" and "abc" both fail.
/// (strtod was the other per-line hot spot: it walks the locale and
/// requires a NUL-terminated copy.)
bool parseNum(std::string_view tok, double& out) {
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);
  if (tok.empty()) return false;
  const char* b = tok.data();
  const char* e = b + tok.size();
  const auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc() && p == e && std::isfinite(out);
}

bool parseCount(std::string_view tok, long& out) {
  double d = 0.0;
  if (!parseNum(tok, d) || d < 0.0 || d != std::floor(d)) return false;
  out = static_cast<long>(d);
  return true;
}

/// Heterogeneous-lookup name map: find(string_view) without a temporary
/// std::string per pin line.
struct SvHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};
using NameMap = std::unordered_map<std::string, std::int32_t, SvHash, SvEq>;

/// The resolved .aux file list.
struct AuxFiles {
  std::string dir;
  std::string nodes, nets, pl, scl, wts;
};

/// Parses an .aux file: every token ending in .nodes/.nets/.pl/.scl/.wts
/// names that file. `next(line)` yields the comment-stripped lines, so each
/// pass keeps its own reader (and its own relation to the fault injector).
template <typename NextLine>
Status parseAux(const std::string& auxPath, NextLine&& next, AuxFiles& files,
                RuntimeContext& rc) {
  std::string line;
  std::vector<std::string_view> t;
  while (next(line)) {
    splitTokens(line, t);
    for (const auto tok : t) {
      auto ends = [&](std::string_view suffix) {
        return tok.size() > suffix.size() &&
               tok.substr(tok.size() - suffix.size()) == suffix;
      };
      if (ends(".nodes")) files.nodes = std::string(tok);
      if (ends(".nets")) files.nets = std::string(tok);
      if (ends(".pl")) files.pl = std::string(tok);
      if (ends(".scl")) files.scl = std::string(tok);
      if (ends(".wts")) files.wts = std::string(tok);
    }
  }
  if (files.nodes.empty() || files.nets.empty() || files.pl.empty()) {
    rc.log().warn("bookshelf: %s lists no nodes/nets/pl", auxPath.c_str());
    return Status::invalidInput(auxPath + " lists no nodes/nets/pl");
  }
  files.dir = dirOf(auxPath) + "/";
  return {};
}

Status resolveAux(const std::string& auxPath, AuxFiles& files,
                  RuntimeContext& rc) {
  std::ifstream aux(auxPath);
  if (!aux) return ioFail(rc, "cannot open " + auxPath);
  // Plain getline, not LineScanner: the counting pass must never consume
  // "bookshelf.line" fault events — those belong to the fill pass, and the
  // injector's event sequence has to match a non-counting read exactly.
  const auto next = [&aux](std::string& line) {
    if (!std::getline(aux, line)) return false;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    return true;
  };
  return parseAux(auxPath, next, files, rc);
}

/// Counting pass over one file: returns the declared header count when
/// `headerKey` is found, otherwise counts data lines accepted by
/// `isData(t)`. Plain getline (no fault sites — counting is advisory and
/// must not consume injector events meant for the fill pass).
template <typename IsData>
Status countFile(const std::string& path, std::string_view headerKey,
                 IsData&& isData, std::size_t* count, bool* declared,
                 RuntimeContext& rc) {
  std::ifstream in(path);
  if (!in) return ioFail(rc, "cannot open " + path);
  std::string line;
  std::vector<std::string_view> t;
  std::size_t counted = 0;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    std::string_view sv(line);
    if (hash != std::string_view::npos) sv = sv.substr(0, hash);
    splitTokens(sv, t);
    if (t.empty()) continue;
    if (t[0] == headerKey) {
      long v = 0;
      if (t.size() >= 2 && parseCount(t[1], v)) {
        *count = static_cast<std::size_t>(v);
        *declared = true;
        return {};  // headers precede data; stop reading
      }
      // Malformed header: fall through to counting; the fill pass will
      // report the precise file:line error.
    }
    if (isData(t)) ++counted;
  }
  *count = counted;
  *declared = false;
  return {};
}

/// .nets needs two counts (nets + pins) in one pass; stop early only when
/// both headers have been seen.
Status countNetsFile(const std::string& path, std::size_t* nets,
                     std::size_t* pins, bool* declared, RuntimeContext& rc) {
  std::ifstream in(path);
  if (!in) return ioFail(rc, "cannot open " + path);
  std::string line;
  std::vector<std::string_view> t;
  std::size_t countedNets = 0;
  std::size_t countedPins = 0;
  long declaredNets = -1;
  long declaredPins = -1;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    std::string_view sv(line);
    if (hash != std::string_view::npos) sv = sv.substr(0, hash);
    splitTokens(sv, t);
    if (t.empty()) continue;
    if (t[0] == "NumNets" && t.size() >= 2) {
      parseCount(t[1], declaredNets);
    } else if (t[0] == "NumPins" && t.size() >= 2) {
      parseCount(t[1], declaredPins);
    } else if (t[0] == "NetDegree") {
      ++countedNets;
    } else if (t[0] != "UCLA") {
      ++countedPins;
    }
    if (declaredNets >= 0 && declaredPins >= 0) {
      *nets = static_cast<std::size_t>(declaredNets);
      *pins = static_cast<std::size_t>(declaredPins);
      *declared = true;
      return {};
    }
  }
  *nets = declaredNets >= 0 ? static_cast<std::size_t>(declaredNets)
                            : countedNets;
  *pins = declaredPins >= 0 ? static_cast<std::size_t>(declaredPins)
                            : countedPins;
  *declared = false;
  return {};
}

StatusOr<BookshelfCounts> scanCounts(const AuxFiles& files,
                                     RuntimeContext& rc) {
  BookshelfCounts counts;
  bool declNodes = false;
  bool declNets = false;
  bool declRows = true;  // no .scl => nothing to count
  const Status sn = countFile(
      files.dir + files.nodes, "NumNodes",
      [](const std::vector<std::string_view>& t) {
        return t[0] != "UCLA" && t[0] != "NumTerminals";
      },
      &counts.objects, &declNodes, rc);
  if (!sn.ok()) return sn;
  const Status se = countNetsFile(files.dir + files.nets, &counts.nets,
                                  &counts.pins, &declNets, rc);
  if (!se.ok()) return se;
  if (!files.scl.empty()) {
    declRows = false;
    const Status sr = countFile(
        files.dir + files.scl, "NumRows",
        [](const std::vector<std::string_view>& t) {
          return t[0] == "CoreRow";
        },
        &counts.rows, &declRows, rc);
    if (!sr.ok()) return sr;
  }
  counts.declared = declNodes && declNets && declRows;
  return counts;
}

StatusOr<BookshelfCounts> scanBookshelfCountsImpl(const std::string& auxPath,
                                                  RuntimeContext& rc) {
  AuxFiles files;
  if (const Status s = resolveAux(auxPath, files, rc); !s.ok()) return s;
  return scanCounts(files, rc);
}

Status readBookshelfImpl(const std::string& auxPath, PlacementDB& db,
                         RuntimeContext& rc) {
  std::ifstream aux(auxPath);
  if (!aux) return ioFail(rc, "cannot open " + auxPath);
  AuxFiles files;
  {
    // LineScanner (not resolveAux) so the aux file participates in the
    // "bookshelf.line" fault site exactly as it always has.
    LineScanner sc(aux, auxPath, rc);
    const auto next = [&sc](std::string& line) { return sc.next(line); };
    if (const Status s = parseAux(auxPath, next, files, rc); !s.ok()) {
      return s;
    }
  }
  std::string line;
  std::vector<std::string_view> t;
  const std::string& dir = files.dir;
  const std::string& nodesFile = files.nodes;
  const std::string& netsFile = files.nets;
  const std::string& plFile = files.pl;
  const std::string& sclFile = files.scl;
  const std::string& wtsFile = files.wts;

  // ---- counting pass -> capacity plan -> budget charge ----
  // The plan is charged for the duration of assembly only (ScopedCharge):
  // the session/serving layer owns the persistent footprint accounting, but
  // an instance that cannot even fit its structural arrays is rejected here
  // before any array is sized.
  const auto countsOr = scanCounts(files, rc);
  if (!countsOr.ok()) return countsOr.status();
  const auto planOr = planCapacity({countsOr->objects, countsOr->nets,
                                    countsOr->pins, countsOr->rows});
  if (!planOr.ok()) {
    rc.log().warn("bookshelf: %s: %s", auxPath.c_str(),
                  planOr.status().message().c_str());
    return Status::invalidInput(auxPath + ": " + planOr.status().message());
  }
  const CapacityPlan& plan = *planOr;
  ScopedCharge assemblyCharge(rc.memory(), plan.totalBytes());
  if (!assemblyCharge.ok()) {
    rc.log().warn("bookshelf: %s needs ~%zu bytes, over the memory budget",
                  auxPath.c_str(), plan.totalBytes());
    return Status::resourceExhausted(
        auxPath + ": instance needs ~" + std::to_string(plan.totalBytes()) +
        " bytes of model memory, over the budget");
  }

  db = PlacementDB{};
  reserveCapacity(db, plan);
  {
    const auto slash = auxPath.find_last_of('/');
    std::string basename =
        slash == std::string::npos ? auxPath : auxPath.substr(slash + 1);
    const auto dot = basename.find_last_of('.');
    db.name = dot == std::string::npos ? basename : basename.substr(0, dot);
  }

  NameMap nameToObj;
  nameToObj.reserve(countsOr->objects);

  // ---- .nodes ----
  {
    std::ifstream in(dir + nodesFile);
    if (!in) return ioFail(rc, "cannot open " + nodesFile);
    LineScanner sc(in, nodesFile, rc);
    long declared = -1;
    while (sc.next(line)) {
      splitTokens(line, t);
      if (t.empty() || t[0] == "UCLA" || t[0] == "NumTerminals") continue;
      if (t[0] == "NumNodes") {
        if (t.size() < 2 || !parseCount(t[1], declared)) {
          return sc.fail("bad NumNodes count");
        }
        continue;
      }
      if (t.size() < 3) return sc.fail("truncated nodes line: " + line);
      Object o;
      o.name = std::string(t[0]);
      if (!parseNum(t[1], o.w) || !parseNum(t[2], o.h)) {
        return sc.fail("non-numeric node dims: " + line);
      }
      o.fixed = t.size() > 3 && (t[3] == "terminal" || t[3] == "terminal_NI");
      if (nameToObj.find(std::string_view(o.name)) != nameToObj.end()) {
        return sc.fail("duplicate node " + o.name);
      }
      nameToObj[o.name] = static_cast<std::int32_t>(db.objects.size());
      db.objects.push_back(std::move(o));
    }
    if (declared >= 0 && declared != static_cast<long>(db.objects.size())) {
      return sc.fail("NumNodes declares " + std::to_string(declared) +
                     " but file has " + std::to_string(db.objects.size()) +
                     " (truncated file?)");
    }
  }

  // ---- .nets ----
  {
    std::ifstream in(dir + netsFile);
    if (!in) return ioFail(rc, "cannot open " + netsFile);
    LineScanner sc(in, netsFile, rc);
    Net* cur = nullptr;
    std::size_t remaining = 0;
    long declaredNets = -1, declaredPins = -1;
    std::size_t totalPins = 0;
    auto netComplete = [&]() -> bool { return cur == nullptr || remaining == 0; };
    while (sc.next(line)) {
      splitTokens(line, t);
      if (t.empty() || t[0] == "UCLA") continue;
      if (t[0] == "NumNets") {
        if (t.size() < 2 || !parseCount(t[1], declaredNets)) {
          return sc.fail("bad NumNets count");
        }
        continue;
      }
      if (t[0] == "NumPins") {
        if (t.size() < 2 || !parseCount(t[1], declaredPins)) {
          return sc.fail("bad NumPins count");
        }
        continue;
      }
      if (t[0] == "NetDegree") {
        if (!netComplete()) {
          return sc.fail("net " + db.nets.back().name + " expects " +
                         std::to_string(db.nets.back().pins.size() + remaining) +
                         " pins, got " +
                         std::to_string(db.nets.back().pins.size()));
        }
        long degree = 0;
        if (t.size() < 2 || !parseCount(t[1], degree)) {
          return sc.fail("bad NetDegree: " + line);
        }
        if (degree == 0) return sc.fail("net with zero pins: " + line);
        Net net;
        net.name = t.size() > 2 ? std::string(t[2])
                                : ("net" + std::to_string(db.nets.size()));
        remaining = static_cast<std::size_t>(degree);
        net.pins.reserve(remaining);  // sole per-net allocation
        db.nets.push_back(std::move(net));
        cur = &db.nets.back();
        continue;
      }
      if (cur == nullptr || remaining == 0) {
        return sc.fail("pin line outside a net: " + line);
      }
      const auto it = nameToObj.find(t[0]);
      if (it == nameToObj.end()) {
        return sc.fail("unknown node in net: " + std::string(t[0]));
      }
      PinRef pin;
      pin.obj = it->second;
      // "name I : ox oy" — direction token optional, offsets optional.
      std::size_t k = 1;
      if (k < t.size() && (t[k] == "I" || t[k] == "O" || t[k] == "B")) {
        pin.dir = t[k] == "I"   ? PinDir::kInput
                  : t[k] == "O" ? PinDir::kOutput
                                : PinDir::kUnknown;
        ++k;
      }
      if (k + 1 < t.size()) {
        if (!parseNum(t[k], pin.ox) || !parseNum(t[k + 1], pin.oy)) {
          return sc.fail("non-numeric pin offset: " + line);
        }
      }
      cur->pins.push_back(pin);
      ++totalPins;
      --remaining;
    }
    if (!netComplete()) {
      return sc.fail("net " + db.nets.back().name + " expects " +
                     std::to_string(db.nets.back().pins.size() + remaining) +
                     " pins, got " +
                     std::to_string(db.nets.back().pins.size()) +
                     " (truncated file?)");
    }
    if (declaredNets >= 0 && declaredNets != static_cast<long>(db.nets.size())) {
      return sc.fail("NumNets declares " + std::to_string(declaredNets) +
                     " but file has " + std::to_string(db.nets.size()));
    }
    if (declaredPins >= 0 && declaredPins != static_cast<long>(totalPins)) {
      return sc.fail("NumPins declares " + std::to_string(declaredPins) +
                     " but file has " + std::to_string(totalPins));
    }
  }

  // ---- .wts (optional) ----
  if (!wtsFile.empty()) {
    std::ifstream in(dir + wtsFile);
    if (in) {
      LineScanner sc(in, wtsFile, rc);
      std::unordered_map<std::string, std::size_t, SvHash, SvEq> netIdx;
      netIdx.reserve(db.nets.size());
      for (std::size_t i = 0; i < db.nets.size(); ++i) {
        netIdx[db.nets[i].name] = i;
      }
      while (sc.next(line)) {
        splitTokens(line, t);
        if (t.size() >= 2) {
          const auto it = netIdx.find(t[0]);
          if (it == netIdx.end()) continue;
          double w = 0.0;
          if (!parseNum(t[1], w)) {
            return sc.fail("non-numeric net weight: " + line);
          }
          db.nets[it->second].weight = w;
        }
      }
    }
  }

  // ---- .pl ----
  {
    std::ifstream in(dir + plFile);
    if (!in) return ioFail(rc, "cannot open " + plFile);
    LineScanner sc(in, plFile, rc);
    while (sc.next(line)) {
      splitTokens(line, t);
      if (t.empty() || t[0] == "UCLA") continue;
      if (t.size() < 3) continue;
      const auto it = nameToObj.find(t[0]);
      if (it == nameToObj.end()) continue;
      auto& o = db.objects[static_cast<std::size_t>(it->second)];
      if (!parseNum(t[1], o.lx) || !parseNum(t[2], o.ly)) {
        return sc.fail("non-numeric coordinates: " + line);
      }
      for (const auto& tok : t) {
        if (tok == "/FIXED" || tok == "FIXED") o.fixed = true;
      }
    }
  }

  // ---- .scl ----
  double rowMinX = std::numeric_limits<double>::max(), rowMaxX = -rowMinX;
  double rowMinY = rowMinX, rowMaxY = -rowMinX;
  if (!sclFile.empty()) {
    std::ifstream in(dir + sclFile);
    if (!in) return ioFail(rc, "cannot open " + sclFile);
    LineScanner sc(in, sclFile, rc);
    Row row;
    bool inRow = false;
    auto rowNum = [&](std::string_view tok, double& out) -> bool {
      return parseNum(tok, out);
    };
    while (sc.next(line)) {
      splitTokens(line, t);
      if (t.empty()) continue;
      if (t[0] == "CoreRow") {
        row = Row{};
        inRow = true;
      } else if (inRow && t[0] == "Coordinate" && t.size() > 1) {
        if (!rowNum(t[1], row.ly)) return sc.fail("bad Coordinate: " + line);
      } else if (inRow && t[0] == "Height" && t.size() > 1) {
        if (!rowNum(t[1], row.height)) return sc.fail("bad Height: " + line);
      } else if (inRow && t[0] == "Sitewidth" && t.size() > 1) {
        if (!rowNum(t[1], row.siteWidth)) {
          return sc.fail("bad Sitewidth: " + line);
        }
      } else if (inRow && t[0] == "SubrowOrigin" && t.size() > 1) {
        if (!rowNum(t[1], row.lx)) return sc.fail("bad SubrowOrigin: " + line);
        for (std::size_t k = 2; k + 1 < t.size(); ++k) {
          if (t[k] == "NumSites") {
            long sites = 0;
            if (!parseCount(t[k + 1], sites)) {
              return sc.fail("bad NumSites: " + line);
            }
            row.numSites = static_cast<std::int32_t>(sites);
          }
        }
      } else if (t[0] == "End" && inRow) {
        if (row.height > 0.0 && row.numSites > 0) {
          db.rows.push_back(row);
          rowMinX = std::min(rowMinX, row.lx);
          rowMaxX = std::max(rowMaxX, row.hx());
          rowMinY = std::min(rowMinY, row.ly);
          rowMaxY = std::max(rowMaxY, row.ly + row.height);
        }
        inRow = false;
      }
    }
  }

  // Region: bounding box of rows, else of all objects.
  if (!db.rows.empty()) {
    db.region = {rowMinX, rowMinY, rowMaxX, rowMaxY};
  } else {
    Rect r{1e30, 1e30, -1e30, -1e30};
    for (const auto& o : db.objects) {
      r.lx = std::min(r.lx, o.lx);
      r.ly = std::min(r.ly, o.ly);
      r.hx = std::max(r.hx, o.lx + o.w);
      r.hy = std::max(r.hy, o.ly + o.h);
    }
    db.region = r;
  }

  // Classify kinds: movable multi-row objects are macros; fixed row-sized
  // objects are IO pads, larger fixed ones macros.
  const double rowH = db.rows.empty() ? 0.0 : db.rows.front().height;
  for (auto& o : db.objects) {
    if (rowH > 0.0 && o.h > rowH * 1.5) {
      o.kind = ObjKind::kMacro;
    } else {
      o.kind = o.fixed ? ObjKind::kIo : ObjKind::kStdCell;
    }
  }

  db.finalize();
  const Status issue = db.validate();
  if (!issue.ok()) {
    rc.log().warn("bookshelf: invalid instance: %s", issue.message().c_str());
    return Status::invalidInput(auxPath + ": invalid instance: " +
                                issue.message());
  }
  return {};
}

}  // namespace

StatusOr<BookshelfCounts> scanBookshelfCounts(const std::string& auxPath,
                                              RuntimeContext& rc) {
  try {
    return scanBookshelfCountsImpl(auxPath, rc);
  } catch (const std::exception& e) {
    rc.log().warn("bookshelf: count scan failed in %s: %s", auxPath.c_str(),
                  e.what());
    return Status::invalidInput(std::string("count scan failed in ") +
                                auxPath + ": " + e.what());
  }
}

Status readBookshelf(const std::string& auxPath, PlacementDB& db,
                     RuntimeContext& rc) {
  // The parser itself is exception-free; the catch is a last-resort seam so
  // a freak allocation failure on a corrupt file surfaces as a status, not
  // a crash.
  try {
    return readBookshelfImpl(auxPath, db, rc);
  } catch (const std::exception& e) {
    rc.log().warn("bookshelf: parse error in %s: %s", auxPath.c_str(),
                  e.what());
    return Status::invalidInput(std::string("parse error in ") + auxPath +
                                ": " + e.what());
  }
}

Status writeBookshelf(const std::string& dir, const std::string& base,
                      const PlacementDB& db) {
  const std::string prefix = dir + "/" + base;

  {
    std::ofstream out(prefix + ".aux");
    if (!out) return Status::ioError("cannot write " + prefix + ".aux");
    out << "RowBasedPlacement : " << base << ".nodes " << base << ".nets "
        << base << ".wts " << base << ".pl " << base << ".scl\n";
  }
  {
    std::ofstream out(prefix + ".nodes");
    if (!out) return Status::ioError("cannot write " + prefix + ".nodes");
    out << std::setprecision(15);
    out << "UCLA nodes 1.0\n\n";
    std::size_t terminals = 0;
    for (const auto& o : db.objects) terminals += o.fixed ? 1 : 0;
    out << "NumNodes : " << db.objects.size() << "\n";
    out << "NumTerminals : " << terminals << "\n";
    for (const auto& o : db.objects) {
      out << "    " << o.name << " " << o.w << " " << o.h
          << (o.fixed ? " terminal" : "") << "\n";
    }
  }
  {
    std::ofstream out(prefix + ".nets");
    if (!out) return Status::ioError("cannot write " + prefix + ".nets");
    out << std::setprecision(15);
    out << "UCLA nets 1.0\n\n";
    std::size_t pins = 0;
    for (const auto& n : db.nets) pins += n.pins.size();
    out << "NumNets : " << db.nets.size() << "\n";
    out << "NumPins : " << pins << "\n";
    for (const auto& n : db.nets) {
      out << "NetDegree : " << n.pins.size() << "  " << n.name << "\n";
      for (const auto& p : n.pins) {
        const char* dir2 = p.dir == PinDir::kInput    ? "I"
                           : p.dir == PinDir::kOutput ? "O"
                                                      : "B";
        out << "    " << db.objects[static_cast<std::size_t>(p.obj)].name
            << " " << dir2 << " : " << p.ox << " " << p.oy << "\n";
      }
    }
  }
  {
    std::ofstream out(prefix + ".wts");
    if (!out) return Status::ioError("cannot write " + prefix + ".wts");
    out << std::setprecision(15);
    out << "UCLA wts 1.0\n\n";
    for (const auto& n : db.nets) {
      if (n.weight != 1.0) out << n.name << " " << n.weight << "\n";
    }
  }
  {
    std::ofstream out(prefix + ".pl");
    if (!out) return Status::ioError("cannot write " + prefix + ".pl");
    out << std::setprecision(15);
    out << "UCLA pl 1.0\n\n";
    for (const auto& o : db.objects) {
      out << o.name << " " << o.lx << " " << o.ly << " : N"
          << (o.fixed ? " /FIXED" : "") << "\n";
    }
  }
  {
    std::ofstream out(prefix + ".scl");
    if (!out) return Status::ioError("cannot write " + prefix + ".scl");
    out << std::setprecision(15);
    out << "UCLA scl 1.0\n\n";
    out << "NumRows : " << db.rows.size() << "\n";
    for (const auto& r : db.rows) {
      out << "CoreRow Horizontal\n";
      out << "  Coordinate : " << r.ly << "\n";
      out << "  Height : " << r.height << "\n";
      out << "  Sitewidth : " << r.siteWidth << "\n";
      out << "  Sitespacing : " << r.siteWidth << "\n";
      out << "  Siteorient : 1\n";
      out << "  Sitesymmetry : 1\n";
      out << "  SubrowOrigin : " << r.lx << "  NumSites : " << r.numSites
          << "\n";
      out << "End\n";
    }
  }
  return {};
}

}  // namespace ep
