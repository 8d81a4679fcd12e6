// Scale lane (`ctest -L scale`, the `scale` preset, a dedicated CI job):
// a generated 100k-cell design runs the full supervised flow through the
// multilevel V-cycle under explicit wall-clock and memory ceilings. The
// test is expensive by design, so it only runs when EP_SCALE_TEST=1 is
// set (the preset sets it; a plain `ctest` skips in milliseconds).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <cstdint>

#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "gen/suites.h"
#include "util/context.h"
#include "util/timer.h"

namespace ep {
namespace {

bool scaleEnabled() {
  const char* v = std::getenv("EP_SCALE_TEST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Process peak RSS in bytes (Linux ru_maxrss is KiB).
std::size_t peakRssBytes() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

TEST(ScaleTest, Supervised100kMultilevelFlowWithinBudgets) {
  if (!scaleEnabled()) {
    GTEST_SKIP() << "set EP_SCALE_TEST=1 (or run the scale preset)";
  }
  const GenSpec spec = suiteSpec("scale_100k");
  PlacementDB db = generateCircuit(spec);
  ASSERT_GE(db.numMovable(), 100000u);

  RuntimeContext ctx(4);
  SupervisorConfig sup;
  sup.multilevel.enabled = true;
  FlowConfig cfg;
  SupervisorReport report;

  Timer t;
  const auto run = runSupervisedFlow(db, cfg, ctx, sup, &report);
  const double wall = t.seconds();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_TRUE(run->status.ok()) << run->status.message();

  // The ladder must actually engage at this size, and every coarse level
  // must have run as a real GP stage.
  ASSERT_FALSE(run->mgpLevels.empty());
  for (const auto& lm : run->mgpLevels) {
    EXPECT_TRUE(lm.metrics.ran) << "level " << lm.level;
    EXPECT_GT(lm.clusters, 0u) << "level " << lm.level;
  }

  // mGP -> cDP completed: a legal placement with sane quality metrics.
  EXPECT_TRUE(run->cdp.ran);
  EXPECT_TRUE(run->legality.legal);
  EXPECT_GT(run->finalHpwl, 0.0);

  // Budgets for the CI lane (4 vCPUs): generous enough to absorb
  // scheduler noise, tight enough that a superlinear regression in any
  // stage or a vector-regrowth memory spike fails the lane.
  EXPECT_LT(wall, 900.0) << "wall seconds over the scale budget";
  // Peak RSS stays O(cells). The V-cycle frees each coarse level once it
  // has seeded the next-finer one; measured at 222 MiB (4 threads, GCC
  // 12.2, RelWithDebInfo, x86-64). The bound leaves a 28 MiB (~12%)
  // margin, so holding the whole ladder to the end of the flow (401 MiB),
  // an O(n^2) structure or a regrowth spike fails the lane.
  EXPECT_LT(peakRssBytes(), std::size_t{250} << 20)
      << "peak RSS " << (peakRssBytes() >> 20) << " MiB over the budget";

  std::printf("scale_100k: %.1fs wall, %zu MiB peak RSS, HPWL %.4g (%a), "
              "%zu coarse levels\n",
              wall, peakRssBytes() >> 20, run->finalHpwl, run->finalHpwl,
              run->mgpLevels.size());
}

}  // namespace
}  // namespace ep
