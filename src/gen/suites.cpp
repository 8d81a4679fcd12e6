#include "gen/suites.h"

#include <cstdio>
#include <cstdlib>


namespace ep {

namespace {

/// FNV-1a of the name: distinct deterministic seed per circuit.
std::uint64_t nameSeed(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

GenSpec base(const std::string& name, std::size_t cells, double rhoT,
             double utilization) {
  GenSpec s;
  s.name = name;
  s.numCells = cells;
  s.targetDensity = rhoT;
  s.utilization = utilization;
  s.numIo = 96;
  s.seed = nameSeed(name);
  return s;
}

}  // namespace

std::vector<GenSpec> ispd2005Suite() {
  // Cell counts scale the paper's 211K..2177K range down to 1.2K..5K.
  struct Row {
    const char* name;
    std::size_t cells;
    std::size_t fixedMacros;
    double util;
  };
  const Row rows[] = {
      {"ispd05_adaptec1s", 1200, 8, 0.70},  {"ispd05_adaptec2s", 1450, 10, 0.65},
      {"ispd05_adaptec3s", 2550, 12, 0.62}, {"ispd05_adaptec4s", 2800, 12, 0.55},
      {"ispd05_bigblue1s", 1570, 8, 0.68},  {"ispd05_bigblue2s", 3150, 14, 0.60},
      {"ispd05_bigblue3s", 4000, 16, 0.65}, {"ispd05_bigblue4s", 5000, 16, 0.55},
  };
  std::vector<GenSpec> suite;
  for (const auto& r : rows) {
    GenSpec s = base(r.name, r.cells, 1.0, r.util);
    s.numFixedMacros = r.fixedMacros;
    suite.push_back(s);
  }
  return suite;
}

std::vector<GenSpec> ispd2006Suite() {
  struct Row {
    const char* name;
    std::size_t cells;
    double rhoT;
    double util;
  };
  // rho_t values are the official per-benchmark bounds (Table II).
  const Row rows[] = {
      {"ispd06_adaptec5s", 2000, 0.5, 0.35}, {"ispd06_newblue1s", 1000, 0.8, 0.55},
      {"ispd06_newblue2s", 1200, 0.9, 0.60}, {"ispd06_newblue3s", 1300, 0.8, 0.55},
      {"ispd06_newblue4s", 1600, 0.5, 0.35}, {"ispd06_newblue5s", 2600, 0.5, 0.35},
      {"ispd06_newblue6s", 2700, 0.8, 0.55}, {"ispd06_newblue7s", 4000, 0.8, 0.55},
  };
  std::vector<GenSpec> suite;
  for (const auto& r : rows) {
    GenSpec s = base(r.name, r.cells, r.rhoT, r.util);
    s.numFixedMacros = 6;
    suite.push_back(s);
  }
  return suite;
}

std::vector<GenSpec> mmsSuite() {
  struct Row {
    const char* name;
    std::size_t cells;
    std::size_t macros;  // movable (Table III "# Mac" scaled ~1/8, capped)
    double rhoT;
    double util;
  };
  const Row rows[] = {
      {"mms_adaptec1s", 1200, 8, 1.0, 0.70},
      {"mms_adaptec2s", 1450, 16, 1.0, 0.65},
      {"mms_adaptec3s", 2550, 8, 1.0, 0.62},
      {"mms_adaptec4s", 2800, 9, 1.0, 0.55},
      {"mms_bigblue1s", 1570, 4, 1.0, 0.68},
      {"mms_bigblue2s", 3150, 60, 1.0, 0.60},
      {"mms_bigblue3s", 4000, 80, 1.0, 0.65},
      {"mms_bigblue4s", 5000, 25, 1.0, 0.55},
      {"mms_adaptec5s", 2000, 10, 0.5, 0.35},
      {"mms_newblue1s", 1000, 8, 0.8, 0.55},
      {"mms_newblue2s", 1200, 80, 0.9, 0.60},
      {"mms_newblue3s", 1300, 6, 0.8, 0.55},
      {"mms_newblue4s", 1600, 10, 0.5, 0.35},
      {"mms_newblue5s", 2600, 11, 0.5, 0.35},
      {"mms_newblue6s", 2700, 9, 0.8, 0.55},
      {"mms_newblue7s", 4000, 20, 0.8, 0.55},
  };
  std::vector<GenSpec> suite;
  for (const auto& r : rows) {
    GenSpec s = base(r.name, r.cells, r.rhoT, r.util);
    s.numMovableMacros = r.macros;
    s.macroAreaFraction = 0.30;
    s.numFixedMacros = 0;  // MMS: macros freed, only fixed IO blocks remain
    s.numIo = 128;
    suite.push_back(s);
  }
  return suite;
}

std::vector<GenSpec> scaleSuite() {
  struct Row {
    const char* name;
    std::size_t cells;
  };
  const Row rows[] = {
      {"scale_1k", 1000},    {"scale_5k", 5000},    {"scale_10k", 10000},
      {"scale_25k", 25000},  {"scale_50k", 50000},  {"scale_100k", 100000},
      {"scale_200k", 200000}, {"scale_500k", 500000},
  };
  std::vector<GenSpec> suite;
  for (const auto& r : rows) {
    GenSpec s = base(r.name, r.cells, 1.0, 0.70);
    s.numFixedMacros = 8;
    // Pad count grows with the perimeter, as in the real contest designs.
    s.numIo = r.cells >= 100000 ? 512 : r.cells >= 10000 ? 256 : 96;
    suite.push_back(s);
  }
  return suite;
}

GenSpec suiteSpec(const std::string& name) {
  for (const auto& suite :
       {ispd2005Suite(), ispd2006Suite(), mmsSuite(), scaleSuite()}) {
    for (const auto& s : suite) {
      if (s.name == name) return s;
    }
  }
  std::fprintf(stderr, "suiteSpec: unknown circuit '%s'\n", name.c_str());
  std::abort();
}

}  // namespace ep
