#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bookshelf/bookshelf.h"
#include "gen/generator.h"
#include "util/context.h"

namespace ep {
namespace {

class BookshelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bookshelf_test";
    std::filesystem::create_directories(dir_);
  }
  std::string dir_;
};

TEST_F(BookshelfTest, RoundTripPreservesInstance) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 200;
  spec.numMovableMacros = 3;
  spec.numFixedMacros = 2;
  spec.numIo = 16;
  spec.seed = 5;
  const PlacementDB orig = generateCircuit(spec);

  ASSERT_TRUE(writeBookshelf(dir_, "rt", orig).ok());
  PlacementDB back;
  const auto res = readBookshelf(dir_ + "/rt.aux", back, ctx);
  ASSERT_TRUE(res.ok()) << res.message();

  ASSERT_EQ(back.objects.size(), orig.objects.size());
  ASSERT_EQ(back.nets.size(), orig.nets.size());
  ASSERT_EQ(back.rows.size(), orig.rows.size());
  EXPECT_EQ(back.numMovable(), orig.numMovable());

  for (std::size_t i = 0; i < orig.objects.size(); ++i) {
    const auto& a = orig.objects[i];
    const auto& b = back.objects[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_NEAR(a.w, b.w, 1e-9);
    EXPECT_NEAR(a.h, b.h, 1e-9);
    EXPECT_NEAR(a.lx, b.lx, 1e-9);
    EXPECT_NEAR(a.ly, b.ly, 1e-9);
    EXPECT_EQ(a.fixed, b.fixed);
  }
  for (std::size_t n = 0; n < orig.nets.size(); ++n) {
    ASSERT_EQ(back.nets[n].pins.size(), orig.nets[n].pins.size());
    for (std::size_t k = 0; k < orig.nets[n].pins.size(); ++k) {
      EXPECT_EQ(back.nets[n].pins[k].obj, orig.nets[n].pins[k].obj);
      EXPECT_NEAR(back.nets[n].pins[k].ox, orig.nets[n].pins[k].ox, 1e-9);
      EXPECT_NEAR(back.nets[n].pins[k].oy, orig.nets[n].pins[k].oy, 1e-9);
      EXPECT_EQ(back.nets[n].pins[k].dir, orig.nets[n].pins[k].dir);
    }
  }
  // Region reconstructed from rows.
  EXPECT_NEAR(back.region.width(), orig.region.width(), 1e-6);
  EXPECT_NEAR(back.region.height(), orig.region.height(), 1e-6);
}

TEST_F(BookshelfTest, RoundTripPreservesWeights) {
  RuntimeContext ctx;
  GenSpec spec;
  spec.numCells = 50;
  spec.seed = 8;
  PlacementDB orig = generateCircuit(spec);
  orig.nets[0].weight = 3.5;
  orig.nets[1].weight = 0.25;
  ASSERT_TRUE(writeBookshelf(dir_, "w", orig).ok());
  PlacementDB back;
  ASSERT_TRUE(readBookshelf(dir_ + "/w.aux", back, ctx).ok());
  EXPECT_DOUBLE_EQ(back.nets[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(back.nets[1].weight, 0.25);
  EXPECT_DOUBLE_EQ(back.nets[2].weight, 1.0);
}

TEST_F(BookshelfTest, MissingAuxFails) {
  RuntimeContext ctx;
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/nonexistent.aux", db, ctx);
  EXPECT_FALSE(res.ok());
  EXPECT_FALSE(res.message().empty());
}

TEST_F(BookshelfTest, MalformedAuxFails) {
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/bad.aux");
    out << "RowBasedPlacement : nothing useful\n";
  }
  PlacementDB db;
  EXPECT_FALSE(readBookshelf(dir_ + "/bad.aux", db, ctx).ok());
}

TEST_F(BookshelfTest, ParsesHandWrittenFiles) {
  // Minimal hand-authored instance in classic ISPD formatting, including
  // comment lines and the "terminal" keyword.
  RuntimeContext ctx;
  {
    std::ofstream out(dir_ + "/mini.aux");
    out << "RowBasedPlacement :  mini.nodes  mini.nets  mini.wts  mini.pl  "
           "mini.scl\n";
  }
  {
    std::ofstream out(dir_ + "/mini.nodes");
    out << "UCLA nodes 1.0\n# comment\n\nNumNodes : 3\nNumTerminals : 1\n"
        << "   a  2  1\n   b  1  1\n   p  1  1  terminal\n";
  }
  {
    std::ofstream out(dir_ + "/mini.nets");
    out << "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
        << "NetDegree : 3   n0\n   a I : 0.5 0\n   b O : 0 0\n   p B : 0 0\n";
  }
  {
    std::ofstream out(dir_ + "/mini.wts");
    out << "UCLA wts 1.0\n";
  }
  {
    std::ofstream out(dir_ + "/mini.pl");
    out << "UCLA pl 1.0\na 1 2 : N\nb 4 2 : N\np 0 0 : N /FIXED\n";
  }
  {
    std::ofstream out(dir_ + "/mini.scl");
    out << "UCLA scl 1.0\nNumRows : 2\n"
        << "CoreRow Horizontal\n  Coordinate : 0\n  Height : 1\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n  Siteorient : 1\n"
        << "  Sitesymmetry : 1\n  SubrowOrigin : 0  NumSites : 10\nEnd\n"
        << "CoreRow Horizontal\n  Coordinate : 1\n  Height : 1\n"
        << "  Sitewidth : 1\n  Sitespacing : 1\n  Siteorient : 1\n"
        << "  Sitesymmetry : 1\n  SubrowOrigin : 0  NumSites : 10\nEnd\n";
  }
  PlacementDB db;
  const auto res = readBookshelf(dir_ + "/mini.aux", db, ctx);
  ASSERT_TRUE(res.ok()) << res.message();
  ASSERT_EQ(db.objects.size(), 3u);
  EXPECT_EQ(db.objects[0].name, "a");
  EXPECT_DOUBLE_EQ(db.objects[0].w, 2.0);
  EXPECT_TRUE(db.objects[2].fixed);
  ASSERT_EQ(db.nets.size(), 1u);
  ASSERT_EQ(db.nets[0].pins.size(), 3u);
  EXPECT_DOUBLE_EQ(db.nets[0].pins[0].ox, 0.5);
  ASSERT_EQ(db.rows.size(), 2u);
  EXPECT_EQ(db.rows[1].ly, 1.0);
  EXPECT_EQ(db.region, Rect(0, 0, 10, 2));
  EXPECT_EQ(db.numMovable(), 2u);
}

TEST_F(BookshelfTest, WriterProducesAllFiles) {
  GenSpec spec;
  spec.numCells = 20;
  const PlacementDB db = generateCircuit(spec);
  ASSERT_TRUE(writeBookshelf(dir_, "files", db).ok());
  for (const char* ext : {".aux", ".nodes", ".nets", ".pl", ".scl", ".wts"}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/files" + ext)) << ext;
  }
}

}  // namespace
}  // namespace ep
