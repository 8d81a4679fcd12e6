// Golden-metrics regression suite (ctest label: golden).
//
// Three fixed generator seeds run mGP end-to-end; the final HPWL, density
// overflow and iteration count are compared against committed golden JSON
// files in tests/goldens/. The kernels are thread-count deterministic, so
// on the platform that recorded a golden the metrics reproduce exactly;
// the tolerances below only absorb cross-platform libm/FP differences.
//
// Updating the goldens (after an intentional algorithmic change):
//
//   EP_UPDATE_GOLDENS=1 ./build/tests/test_golden
//
// rewrites every golden file in the source tree (the directory is baked in
// via the EP_GOLDEN_DIR compile definition) and reports the runs as passed.
// Before overwriting a golden it prints the file's markdown delta-table row
// (HPWL, overflow and iterations, old -> new with the relative delta; the
// same table as `eplace_regress --delta`). Commit the regenerated files
// together with the change that shifted them, and quote the table in the
// commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "eplace/global_placer.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/parallel.h"
#include "util/run_record.h"

namespace ep {
namespace {

#ifndef EP_GOLDEN_DIR
#error "EP_GOLDEN_DIR must point at tests/goldens (set in CMakeLists.txt)"
#endif

struct GoldenCase {
  std::uint64_t seed;
  std::size_t cells;
};

constexpr GoldenCase kCases[] = {{31, 400}, {32, 500}, {33, 600}};

struct Metrics {
  double hpwl = 0.0;
  double overflow = 0.0;
  int iterations = 0;
};

Metrics runCase(const GoldenCase& c) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.name = "golden";
  spec.numCells = c.cells;
  spec.seed = c.seed;
  PlacementDB db = generateCircuit(spec);
  quadraticInitialPlace(db, ctx);
  GlobalPlacer gp(db, db.movable(), GpConfig{}, ctx);
  gp.makeFillersFromDb();
  const GpResult res = gp.run();
  EXPECT_TRUE(res.status.ok()) << res.status.toString();
  EXPECT_TRUE(res.converged);
  return {res.finalHpwl, res.finalOverflow, res.iterations};
}

std::string goldenPath(const GoldenCase& c) {
  return std::string(EP_GOLDEN_DIR) + "/mgp_seed" + std::to_string(c.seed) +
         ".json";
}

/// Minimal extractor for the flat one-object JSON written below: finds
/// `"key":` and parses the number that follows.
bool jsonNumber(const std::string& text, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

std::string goldenText(const GoldenCase& c, const Metrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"seed\": %llu,\n"
                "  \"cells\": %zu,\n"
                "  \"hpwl\": %.17g,\n"
                "  \"overflow\": %.17g,\n"
                "  \"iterations\": %d\n"
                "}\n",
                static_cast<unsigned long long>(c.seed), c.cells, m.hpwl,
                m.overflow, m.iterations);
  return buf;
}

std::string readText(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class GoldenMetrics : public ::testing::TestWithParam<int> {};

TEST_P(GoldenMetrics, MgpMatchesCommittedGolden) {
  const GoldenCase& c = kCases[GetParam()];
  const Metrics m = runCase(c);

  if (std::getenv("EP_UPDATE_GOLDENS") != nullptr) {
    const std::string text = goldenText(c, m);
    if (std::ifstream(goldenPath(c)).good()) {
      const auto fields = jsonDeltaFields(readText(goldenPath(c)), text);
      ASSERT_TRUE(fields.ok()) << fields.status().toString();
      if (GetParam() == 0) std::printf("%s", deltaTableHeader(*fields).c_str());
      std::printf("%s", deltaTableRow("mgp_seed" + std::to_string(c.seed),
                                      *fields)
                            .c_str());
    }
    std::ofstream f(goldenPath(c));
    ASSERT_TRUE(f.good()) << "cannot write " << goldenPath(c);
    f << text;
    return;
  }

  ASSERT_TRUE(std::ifstream(goldenPath(c)).good())
      << "missing golden " << goldenPath(c)
      << "; run EP_UPDATE_GOLDENS=1 ./test_golden";
  const std::string text = readText(goldenPath(c));

  double goldHpwl = 0.0, goldOverflow = 0.0, goldIters = 0.0;
  ASSERT_TRUE(jsonNumber(text, "hpwl", &goldHpwl));
  ASSERT_TRUE(jsonNumber(text, "overflow", &goldOverflow));
  ASSERT_TRUE(jsonNumber(text, "iterations", &goldIters));

  EXPECT_NEAR(m.hpwl, goldHpwl, 2e-4 * goldHpwl)
      << "seed " << c.seed << ": HPWL drifted from the committed golden";
  EXPECT_NEAR(m.overflow, goldOverflow, 2e-3)
      << "seed " << c.seed << ": overflow drifted";
  EXPECT_NEAR(static_cast<double>(m.iterations), goldIters, 2.0)
      << "seed " << c.seed << ": iteration count drifted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenMetrics, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace ep
