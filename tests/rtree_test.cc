#include "rtree/rtree.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "geometry/rect.h"
#include "join_test_util.h"
#include "rtree/node_layout.h"
#include "util/rng.h"

namespace sdj {
namespace {

using rtree_internal::NodeLayout;

TEST(NodeLayout, FanOutMatchesPaperConfiguration) {
  // 2048-byte pages with double coordinates give the paper's fan-out of ~50.
  EXPECT_EQ(NodeLayout<2>::Capacity(2048), 51u);
  EXPECT_EQ(NodeLayout<2>::kEntrySize, 40u);
  // 1K pages (the paper's size, float-era) would hold 25 double entries.
  EXPECT_EQ(NodeLayout<2>::Capacity(1024), 25u);
}

TEST(NodeLayout, RoundTripsHeaderAndEntries) {
  char page[512] = {};
  NodeLayout<2>::SetLevel(page, 3);
  NodeLayout<2>::SetCount(page, 7);
  EXPECT_EQ(NodeLayout<2>::GetLevel(page), 3);
  EXPECT_EQ(NodeLayout<2>::GetCount(page), 7);
  const Rect<2> r({1.5, -2.0}, {3.0, 4.0});
  NodeLayout<2>::SetRect(page, 2, r);
  NodeLayout<2>::SetRef(page, 2, 0xDEADBEEFCAFEull);
  EXPECT_EQ(NodeLayout<2>::GetRect(page, 2), r);
  EXPECT_EQ(NodeLayout<2>::GetRef(page, 2), 0xDEADBEEFCAFEull);
}

RTreeOptions SmallNodeOptions(RTreeOptions::Split split) {
  RTreeOptions options;
  options.page_size = 512;  // fan-out 12 => deeper trees with less data
  options.split_policy = split;
  return options;
}

class RTreeSplitTest : public ::testing::TestWithParam<RTreeOptions::Split> {
 protected:
  RTreeOptions Options() const { return SmallNodeOptions(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Splits, RTreeSplitTest,
                         ::testing::Values(RTreeOptions::Split::kRStar,
                                           RTreeOptions::Split::kQuadratic),
                         [](const auto& info) {
                           return info.param == RTreeOptions::Split::kRStar
                                      ? "RStar"
                                      : "Quadratic";
                         });

TEST(RTree, EmptyTree) {
  RTree<2> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.Validate());
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(Rect<2>({0, 0}, {1, 1}), &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTree, SingleInsert) {
  RTree<2> tree;
  tree.Insert(Rect<2>::FromPoint({1, 2}), 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Validate());
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(Rect<2>({0, 0}, {5, 5}), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 42u);
}

TEST(RTree, RootMbrCoversAllInserts) {
  RTree<2> tree;
  tree.Insert(Rect<2>::FromPoint({0, 0}), 0);
  tree.Insert(Rect<2>::FromPoint({10, -5}), 1);
  tree.Insert(Rect<2>({2, 2}, {3, 8}), 2);
  EXPECT_EQ(tree.RootMbr(), Rect<2>({0, -5}, {10, 8}));
}

TEST_P(RTreeSplitTest, ManyInsertsStayValidAndQueryable) {
  RTree<2> tree(Options());
  const Rect<2> extent({0, 0}, {1000, 1000});
  const auto points = data::GenerateUniform(2000, extent, 77);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
    if (i % 500 == 499) {
      std::string error;
      ASSERT_TRUE(tree.Validate(&error)) << "after " << i << ": " << error;
    }
  }
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  EXPECT_EQ(tree.size(), points.size());
  EXPECT_GE(tree.height(), 3);

  // Query correctness against brute force, for a sweep of window sizes.
  Rng rng(5);
  for (int q = 0; q < 50; ++q) {
    const double cx = rng.Uniform(0, 1000);
    const double cy = rng.Uniform(0, 1000);
    const double half = rng.Uniform(1, 120);
    const Rect<2> window({cx - half, cy - half}, {cx + half, cy + half});
    std::vector<RTree<2>::Entry> out;
    tree.RangeQuery(window, &out);
    std::set<ObjectId> got;
    for (const auto& e : out) got.insert(e.id);
    ASSERT_EQ(got.size(), out.size()) << "duplicate results";
    std::set<ObjectId> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (window.Contains(points[i])) expected.insert(i);
    }
    ASSERT_EQ(got, expected) << "query " << q;
  }
}

TEST_P(RTreeSplitTest, ClusteredDataStaysValid) {
  RTree<2> tree(Options());
  data::ClusterOptions copts;
  copts.num_points = 3000;
  copts.extent = Rect<2>({0, 0}, {1000, 1000});
  copts.num_clusters = 5;
  copts.spread_fraction = 0.01;
  copts.seed = 9;
  const auto points = data::GenerateClustered(copts);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  std::string error;
  EXPECT_TRUE(tree.Validate(&error)) << error;
}

TEST_P(RTreeSplitTest, ExtendedObjectsSupported) {
  RTree<2> tree(Options());
  Rng rng(13);
  std::vector<Rect<2>> rects;
  for (int i = 0; i < 800; ++i) {
    const double x = rng.Uniform(0, 990);
    const double y = rng.Uniform(0, 990);
    const Rect<2> r({x, y}, {x + rng.Uniform(0, 10), y + rng.Uniform(0, 10)});
    rects.push_back(r);
    tree.Insert(r, i);
  }
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  const Rect<2> window({100, 100}, {300, 300});
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(window, &out);
  std::set<ObjectId> got;
  for (const auto& e : out) got.insert(e.id);
  std::set<ObjectId> expected;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (window.Intersects(rects[i])) expected.insert(i);
  }
  EXPECT_EQ(got, expected);
}

TEST(RTree, ForEachObjectVisitsAllOnce) {
  RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
  const auto points =
      data::GenerateUniform(500, Rect<2>({0, 0}, {100, 100}), 3);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  std::set<ObjectId> seen;
  tree.ForEachObject([&seen](const Rect<2>& rect, ObjectId id) {
    EXPECT_EQ(rect.Area(), 0.0);
    EXPECT_TRUE(seen.insert(id).second);
  });
  EXPECT_EQ(seen.size(), 500u);
}

TEST(RTree, BulkLoadMatchesInsertSemantics) {
  const auto points =
      data::GenerateUniform(3000, Rect<2>({0, 0}, {1000, 1000}), 21);
  std::vector<RTree<2>::Entry> entries;
  for (size_t i = 0; i < points.size(); ++i) {
    entries.push_back({Rect<2>::FromPoint(points[i]), i});
  }
  RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), points.size());
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;

  const Rect<2> window({200, 200}, {400, 500});
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(window, &out);
  size_t expected = 0;
  for (const auto& p : points) {
    if (window.Contains(p)) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(RTree, BulkLoadSizeSweepAlwaysValid) {
  // Sweep sizes around node-capacity boundaries to exercise the balanced
  // chunking (underfull nodes would fail Validate).
  for (size_t n : {1u, 2u, 11u, 12u, 13u, 24u, 25u, 140u, 145u, 1000u}) {
    const auto points =
        data::GenerateUniform(n, Rect<2>({0, 0}, {100, 100}), n);
    std::vector<RTree<2>::Entry> entries;
    for (size_t i = 0; i < points.size(); ++i) {
      entries.push_back({Rect<2>::FromPoint(points[i]), i});
    }
    RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
    tree.BulkLoad(entries);
    std::string error;
    ASSERT_TRUE(tree.Validate(&error)) << "n=" << n << ": " << error;
    EXPECT_EQ(tree.size(), n);
  }
}

TEST_P(RTreeSplitTest, DeleteMaintainsInvariants) {
  RTree<2> tree(Options());
  const auto points =
      data::GenerateUniform(1200, Rect<2>({0, 0}, {500, 500}), 31);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  // Delete every other object.
  for (size_t i = 0; i < points.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(Rect<2>::FromPoint(points[i]), i)) << i;
  }
  EXPECT_EQ(tree.size(), points.size() / 2);
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  // Deleted objects are gone; remaining ones still findable.
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(Rect<2>({0, 0}, {500, 500}), &out);
  std::set<ObjectId> got;
  for (const auto& e : out) got.insert(e.id);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(got.count(i), i % 2 == 1 ? 1u : 0u) << i;
  }
}

TEST(RTree, DeleteNonexistentReturnsFalse) {
  RTree<2> tree;
  EXPECT_FALSE(tree.Delete(Rect<2>::FromPoint({1, 1}), 0));
  tree.Insert(Rect<2>::FromPoint({1, 1}), 0);
  EXPECT_FALSE(tree.Delete(Rect<2>::FromPoint({1, 1}), 1));  // wrong id
  EXPECT_FALSE(tree.Delete(Rect<2>::FromPoint({2, 2}), 0));  // wrong rect
  EXPECT_TRUE(tree.Delete(Rect<2>::FromPoint({1, 1}), 0));
  EXPECT_FALSE(tree.Delete(Rect<2>::FromPoint({1, 1}), 0));  // already gone
}

TEST(RTree, DeleteAllThenReuse) {
  RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
  const auto points =
      data::GenerateUniform(300, Rect<2>({0, 0}, {100, 100}), 8);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Delete(Rect<2>::FromPoint(points[i]), i));
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Validate());
  // The tree must be usable again after full deletion.
  tree.Insert(Rect<2>::FromPoint({5, 5}), 7);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Validate());
}

TEST(RTree, MinObjectsUnderUsesMinimumFanOut) {
  RTree<2> tree;  // default: max 51, min 20
  EXPECT_EQ(tree.min_entries(), 20u);
  EXPECT_EQ(tree.MinObjectsUnder(0), 20u);
  EXPECT_EQ(tree.MinObjectsUnder(1), 400u);
  EXPECT_EQ(tree.MinObjectsUnder(2), 8000u);
}

TEST(RTree, ExpectedObjectsUnderReflectsOccupancy) {
  RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
  const auto points =
      data::GenerateUniform(1000, Rect<2>({0, 0}, {100, 100}), 5);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  // Leaves on average hold size/num_leaves objects.
  EXPECT_DOUBLE_EQ(tree.ExpectedObjectsUnder(0),
                   1000.0 / tree.num_leaves());
  EXPECT_GT(tree.ExpectedObjectsUnder(0), tree.min_entries() * 0.5);
}

TEST(RTree, PinExposesNodeStructure) {
  RTree<2> tree(SmallNodeOptions(RTreeOptions::Split::kRStar));
  const auto points =
      data::GenerateUniform(400, Rect<2>({0, 0}, {100, 100}), 6);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  auto root = tree.Pin(tree.root());
  EXPECT_EQ(root.level(), tree.root_level());
  EXPECT_GE(root.count(), 2u);
  // Children are one level down and inside the root MBR.
  const Rect<2> root_mbr = tree.RootMbr();
  for (uint32_t i = 0; i < root.count(); ++i) {
    EXPECT_TRUE(root_mbr.Contains(root.rect(i)));
    auto child = tree.Pin(static_cast<storage::PageId>(root.ref(i)));
    EXPECT_EQ(child.level(), root.level() - 1);
  }
}

TEST(RTree, NodeIoAccountingThroughPool) {
  RTreeOptions options = SmallNodeOptions(RTreeOptions::Split::kRStar);
  options.buffer_pages = 8;  // tiny buffer to force misses
  RTree<2> tree(options);
  const auto points =
      data::GenerateUniform(2000, Rect<2>({0, 0}, {1000, 1000}), 44);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  tree.pool().ResetStats();
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(Rect<2>({0, 0}, {1000, 1000}), &out);
  EXPECT_EQ(out.size(), 2000u);
  const auto& stats = tree.pool().stats();
  EXPECT_EQ(stats.logical_reads, tree.num_nodes());
  EXPECT_GT(stats.buffer_misses, 0u);
}

TEST(RTree, FileBackedTreeWorks) {
  RTreeOptions options = SmallNodeOptions(RTreeOptions::Split::kRStar);
  options.file_path = test::TempPath("sdj_rtree_test.pages");
  options.buffer_pages = 4;
  RTree<2> tree(options);
  const auto points =
      data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 10);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  std::vector<RTree<2>::Entry> out;
  tree.RangeQuery(Rect<2>({0, 0}, {100, 100}), &out);
  EXPECT_EQ(out.size(), 600u);
}

TEST(RTree, ThreeDimensionalTree) {
  RTreeOptions options;
  options.page_size = 512;
  RTree<3> tree(options);
  Rng rng(17);
  std::vector<Point<3>> points;
  for (int i = 0; i < 1000; ++i) {
    points.push_back(
        {rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)});
    tree.Insert(Rect<3>::FromPoint(points.back()), i);
  }
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  const Rect<3> window({10, 10, 10}, {60, 50, 40});
  std::vector<RTree<3>::Entry> out;
  tree.RangeQuery(window, &out);
  size_t expected = 0;
  for (const auto& p : points) {
    if (window.Contains(p)) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(RTree, MaxEntriesOverrideCapsFanOut) {
  RTreeOptions options;
  options.max_entries_override = 8;
  RTree<2> tree(options);
  EXPECT_EQ(tree.max_entries(), 8u);
  EXPECT_EQ(tree.min_entries(), 3u);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(Rect<2>::FromPoint({static_cast<double>(i % 20),
                                    static_cast<double>(i / 20)}),
                i);
  }
  std::string error;
  EXPECT_TRUE(tree.Validate(&error)) << error;
  EXPECT_GE(tree.height(), 3);
}

}  // namespace
}  // namespace sdj
