#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>

#include "util/csv.h"
#include "util/fault_injector.h"
#include "util/geometry.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace ep {
namespace {

TEST(Geometry, PointArithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -4.0};
  EXPECT_EQ(a + b, Point(4.0, -2.0));
  EXPECT_EQ(a - b, Point(-2.0, 6.0));
  EXPECT_EQ(a * 2.0, Point(2.0, 4.0));
  EXPECT_DOUBLE_EQ(Point(3.0, 4.0).norm(), 5.0);
}

TEST(Geometry, RectBasics) {
  const Rect r{0.0, 0.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 2.0);
  EXPECT_DOUBLE_EQ(r.area(), 8.0);
  EXPECT_EQ(r.center(), Point(2.0, 1.0));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect(1.0, 1.0, 1.0, 3.0).empty());
}

TEST(Geometry, RectContainsAndOverlap) {
  const Rect r{0.0, 0.0, 10.0, 10.0};
  EXPECT_TRUE(r.contains(Point{5.0, 5.0}));
  EXPECT_TRUE(r.contains(Point{0.0, 0.0}));  // boundary is inside
  EXPECT_FALSE(r.contains(Point{10.5, 5.0}));
  EXPECT_TRUE(r.contains(Rect{1.0, 1.0, 9.0, 9.0}));
  EXPECT_FALSE(r.contains(Rect{-1.0, 1.0, 9.0, 9.0}));
  EXPECT_TRUE(r.overlaps(Rect{9.0, 9.0, 12.0, 12.0}));
  // Touching edges do not overlap (open comparison).
  EXPECT_FALSE(r.overlaps(Rect{10.0, 0.0, 12.0, 10.0}));
}

TEST(Geometry, OverlapArea) {
  const Rect a{0.0, 0.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(a.overlapArea(Rect{2.0, 2.0, 6.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(a.overlapArea(Rect{4.0, 0.0, 8.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(a.overlapArea(a), 16.0);
}

TEST(Geometry, IntervalOverlap) {
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 2.0, 1.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 1.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 5.0, 1.0, 2.0), 1.0);
}

TEST(Geometry, ClampLowerLeft) {
  const Rect region{0.0, 0.0, 10.0, 10.0};
  EXPECT_EQ(clampLowerLeft(-3.0, 4.0, 2.0, 2.0, region), Point(0.0, 4.0));
  EXPECT_EQ(clampLowerLeft(9.5, 9.5, 2.0, 2.0, region), Point(8.0, 8.0));
  // Object wider than region pins to the lower-left.
  EXPECT_EQ(clampLowerLeft(5.0, 5.0, 20.0, 2.0, region), Point(0.0, 5.0));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  int counts[5] = {};
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.2, 0.02);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, Norms) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm1(v), 7.0);
  const std::vector<double> w{1.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(v, w), -1.0);
  EXPECT_DOUBLE_EQ(dist2(v, w), std::hypot(2.0, 5.0));
}

TEST(Stats, SummaryWelford) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138089935, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Geomean) {
  const std::vector<double> v{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  const std::vector<double> bad{1.0, 0.0};
  EXPECT_DOUBLE_EQ(geomean(bad), 0.0);
}

TEST(Timer, MeasuresSomething) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/ep_csv_test.csv";
  {
    const LogSink log;
    CsvWriter w(path, {"a", "b"}, log);
    ASSERT_TRUE(w.ok());
    w.row(std::vector<double>{1.0, 2.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
}

TEST(Io, ReadFileReturnsBytesOrTypedIoError) {
  const std::string path = ::testing::TempDir() + "/ep_io_read.bin";
  const std::string bytes("a\0b\xff\n", 5);
  ASSERT_TRUE(io::writeFileDurably(path, bytes).ok());
  const StatusOr<std::string> back = io::readFile(path);
  ASSERT_TRUE(back.ok()) << back.status().toString();
  EXPECT_EQ(*back, bytes);
  std::remove(path.c_str());
  const StatusOr<std::string> missing = io::readFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIo);
}

TEST(Io, ListNumberedFilesSkipsNamesWhoseNumberDoesNotFit) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ep_io_numbered";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name :
       {"f_10.x", "f_9.x", "f_0018446744073709551615.x",  // UINT64_MAX
        "f_18446744073709551616.x",                       // UINT64_MAX + 1
        "f_255.x", "f_256.x", "f_.x", "f_-1.x", "f_1.y", "g_1.x"}) {
    std::ofstream(dir / name) << "x";
  }
  const auto all = io::listNumberedFiles(
      dir.string(), "f_", ".x", std::numeric_limits<std::uint64_t>::max());
  std::vector<std::string> names;
  for (const auto& f : all) names.push_back(f.name);
  EXPECT_EQ(names, (std::vector<std::string>{"f_9.x", "f_10.x", "f_255.x",
                                             "f_256.x",
                                             "f_0018446744073709551615.x"}));
  EXPECT_EQ(all.back().number, std::numeric_limits<std::uint64_t>::max());

  const auto small = io::listNumberedFiles(dir.string(), "f_", ".x", 255);
  ASSERT_EQ(small.size(), 3u);
  EXPECT_EQ(small.back().number, 255u);
  EXPECT_TRUE(
      io::listNumberedFiles((dir / "missing").string(), "f_", ".x", 9).empty());
  fs::remove_all(dir);
}

TEST(FaultSpec, ParsesEveryInjectFormAndRejectsTrailingGarbage) {
  struct Good {
    const char* arg;
    const char* site;
    FaultKind kind;
    long tick;
    int count;
  };
  const Good good[] = {
      {"nesterov.grad=nan@40", "nesterov.grad", FaultKind::kNaN, 40, 1},
      {"fft.forward=spike@3x2", "fft.forward", FaultKind::kSpike, 3, 2},
      {"bookshelf.line=trunc@10x-1", "bookshelf.line", FaultKind::kTruncate,
       10, -1},
      {"io.fsync=error@0", "io.fsync", FaultKind::kError, 0, 1},
  };
  for (const Good& g : good) {
    std::string site;
    FaultSpec spec;
    spec.magnitude = 7.0;
    ASSERT_TRUE(parseFaultSpec(g.arg, &site, &spec)) << g.arg;
    EXPECT_EQ(site, g.site);
    EXPECT_EQ(spec.kind, g.kind) << g.arg;
    EXPECT_EQ(spec.atTick, g.tick) << g.arg;
    EXPECT_EQ(spec.count, g.count) << g.arg;
    EXPECT_EQ(spec.magnitude, 7.0);  // not part of the flag
  }
  for (const char* bad :
       {"", "nan@4", "site=nan", "=nan@4", "site@4=nan", "site=bogus@4",
        "site=nan@", "site=nan@4O", "site=nan@abc", "site=nan@-1",
        "site=nan@4x", "site=nan@4x2z", "site=nan@4x-2", "site=nan@ 4",
        "site=nan@99999999999999999999"}) {
    std::string site = "untouched";
    FaultSpec spec;
    EXPECT_FALSE(parseFaultSpec(bad, &site, &spec)) << bad;
    EXPECT_EQ(site, "untouched") << bad;
  }
  for (const FaultKind k : {FaultKind::kNaN, FaultKind::kSpike,
                            FaultKind::kTruncate, FaultKind::kError}) {
    FaultKind back = FaultKind::kNaN;
    ASSERT_TRUE(faultKindFromName(faultKindName(k), &back));
    EXPECT_EQ(back, k);
  }
  FaultKind unused = FaultKind::kNaN;
  EXPECT_FALSE(faultKindFromName("NaN", &unused));
}

}  // namespace
}  // namespace ep
