// Tests for R-tree persistence: Flush() + Open() round trips through the
// file-backed page store.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "rtree/rtree.h"
#include "storage/checksum.h"
#include "storage/page_file.h"

namespace sdj {
namespace {

RTreeOptions FileOptions(const std::string& path) {
  RTreeOptions options;
  options.page_size = 512;
  options.file_path = path;
  return options;
}

TEST(OpenFilePageFile, OpensExistingPages) {
  const std::string path = test::TempPath("open_pagefile.bin");
  {
    auto file = storage::NewFilePageFile(path, 128);
    ASSERT_NE(file, nullptr);
    file->Allocate();
    file->Allocate();
    char buffer[128];
    std::fill(buffer, buffer + 128, 0x3C);
    ASSERT_EQ(file->Write(1, buffer), storage::IoStatus::kOk);
  }
  auto reopened = storage::OpenFilePageFile(path, 128);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->num_pages(), 2u);
  char buffer[128] = {};
  ASSERT_EQ(reopened->Read(1, buffer), storage::IoStatus::kOk);
  for (char c : buffer) EXPECT_EQ(c, 0x3C);
}

TEST(OpenFilePageFile, RejectsMissingOrMisalignedFiles) {
  EXPECT_EQ(storage::OpenFilePageFile(test::TempPath("nope.bin"), 128), nullptr);
  const std::string path = test::TempPath("misaligned.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a page multiple", f);
    std::fclose(f);
  }
  EXPECT_EQ(storage::OpenFilePageFile(path, 128), nullptr);
}

TEST(RTreePersistence, FlushAndOpenRoundTrip) {
  const std::string path = test::TempPath("rtree_roundtrip.pages");
  const auto points =
      data::GenerateUniform(800, Rect<2>({0, 0}, {500, 500}), 99);
  {
    RTree<2> tree(FileOptions(path));
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(points[i]), i);
    }
    tree.Flush();
  }
  auto reopened = RTree<2>::Open(FileOptions(path));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), points.size());
  std::string error;
  ASSERT_TRUE(reopened->Validate(&error)) << error;

  // Queries against the reopened tree match brute force.
  const Rect<2> window({100, 100}, {300, 250});
  std::vector<RTree<2>::Entry> out;
  reopened->RangeQuery(window, &out);
  size_t expected = 0;
  for (const auto& p : points) {
    if (window.Contains(p)) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(RTreePersistence, ReopenedTreeSupportsFurtherInserts) {
  const std::string path = test::TempPath("rtree_growing.pages");
  {
    RTree<2> tree(FileOptions(path));
    for (int i = 0; i < 200; ++i) {
      tree.Insert(Rect<2>::FromPoint({i * 1.0, i * 2.0}), i);
    }
    tree.Flush();
  }
  auto reopened = RTree<2>::Open(FileOptions(path));
  ASSERT_NE(reopened, nullptr);
  for (int i = 200; i < 400; ++i) {
    reopened->Insert(Rect<2>::FromPoint({i * 1.0, i * 2.0}), i);
  }
  EXPECT_EQ(reopened->size(), 400u);
  std::string error;
  ASSERT_TRUE(reopened->Validate(&error)) << error;
  // Flush again and reopen once more.
  reopened->Flush();
  auto again = RTree<2>::Open(FileOptions(path));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->size(), 400u);
  EXPECT_TRUE(again->Validate());
}

TEST(RTreePersistence, OpenRejectsParameterMismatch) {
  const std::string path = test::TempPath("rtree_mismatch.pages");
  {
    RTree<2> tree(FileOptions(path));
    tree.Insert(Rect<2>::FromPoint({1, 1}), 0);
    tree.Flush();
  }
  // Wrong page size.
  RTreeOptions wrong_page = FileOptions(path);
  wrong_page.page_size = 1024;
  EXPECT_EQ(RTree<2>::Open(wrong_page), nullptr);
  // Wrong dimension.
  RTreeOptions as_3d;
  as_3d.page_size = 512;
  as_3d.file_path = path;
  EXPECT_EQ(RTree<3>::Open(as_3d), nullptr);
}

TEST(RTreePersistence, OpenRejectsUnflushedGarbage) {
  const std::string path = test::TempPath("rtree_garbage.pages");
  {
    auto file = storage::NewFilePageFile(path, 512);
    file->Allocate();  // a zeroed page: no magic
  }
  EXPECT_EQ(RTree<2>::Open(FileOptions(path)), nullptr);
}

TEST(PageFileSync, MemoryAndPosixBackendsSyncOk) {
  auto memory = storage::NewMemoryPageFile(128);
  EXPECT_EQ(memory->Sync(), storage::IoStatus::kOk);
  const std::string path = test::TempPath("sync.bin");
  auto posix = storage::NewFilePageFile(path, 128);
  ASSERT_NE(posix, nullptr);
  posix->Allocate();
  char buffer[128] = {};
  ASSERT_EQ(posix->Write(0, buffer), storage::IoStatus::kOk);
  EXPECT_EQ(posix->Sync(), storage::IoStatus::kOk);
}

TEST(OpenFilePageFile, RecoversTruncatedTrailingPage) {
  const std::string path = test::TempPath("torn_tail.bin");
  {
    auto file = storage::NewFilePageFile(path, 128);
    ASSERT_NE(file, nullptr);
    file->Allocate();
    file->Allocate();
    char buffer[128];
    std::fill(buffer, buffer + 128, 0x3C);
    ASSERT_EQ(file->Write(0, buffer), storage::IoStatus::kOk);
    ASSERT_EQ(file->Write(1, buffer), storage::IoStatus::kOk);
  }
  // Simulate a crash mid-append: half a page of garbage at the end.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 64; ++i) std::fputc(0xEE, f);
    std::fclose(f);
  }
  // Without recovery the misaligned file is refused; with recovery the torn
  // tail is dropped and the whole pages stay intact.
  EXPECT_EQ(storage::OpenFilePageFile(path, 128), nullptr);
  auto recovered =
      storage::OpenFilePageFile(path, 128, /*recover_truncated_tail=*/true);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->num_pages(), 2u);
  char buffer[128] = {};
  ASSERT_EQ(recovered->Read(1, buffer), storage::IoStatus::kOk);
  for (char c : buffer) EXPECT_EQ(c, 0x3C);
}

TEST(RTreePersistence, CorruptedPageFailsChecksumNotGeometry) {
  const std::string path = test::TempPath("rtree_corrupt.pages");
  const auto a = data::GenerateUniform(800, Rect<2>({0, 0}, {500, 500}), 7);
  {
    RTree<2> tree(FileOptions(path));
    for (size_t i = 0; i < a.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(a[i]), i);
    }
    ASSERT_TRUE(tree.Flush());
  }
  // Flip one byte in the middle of a node page (well past the meta page).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long physical = 512 + static_cast<long>(storage::kPageTrailerSize);
    ASSERT_EQ(std::fseek(f, 3 * physical + 100, SEEK_SET), 0);
    const int old_byte = std::fgetc(f);
    ASSERT_NE(old_byte, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(old_byte ^ 0x40, f);
    std::fclose(f);
  }
  RTreeOptions options = FileOptions(path);
  options.retry.backoff_us = 0;
  auto reopened = RTree<2>::Open(options);
  ASSERT_NE(reopened, nullptr);
  // A self-join touches every page: it must stop with an I/O error (the
  // corrupted page persistently fails verification) — never produce pairs
  // from garbage geometry.
  DistanceJoin<2> join(*reopened, *reopened, DistanceJoinOptions{});
  JoinResult<2> pair;
  while (join.Next(&pair)) {
  }
  EXPECT_EQ(join.status(), JoinStatus::kIoError);
  EXPECT_GT(join.stats().checksum_failures, 0u);
}

TEST(RTreePersistence, OpenRecoversFromTornTrailingPage) {
  const std::string path = test::TempPath("rtree_torn.pages");
  {
    RTree<2> tree(FileOptions(path));
    for (int i = 0; i < 300; ++i) {
      tree.Insert(Rect<2>::FromPoint({i * 1.0, i * 3.0}), i);
    }
    ASSERT_TRUE(tree.Flush());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 99; ++i) std::fputc(0xAB, f);
    std::fclose(f);
  }
  EXPECT_EQ(RTree<2>::Open(FileOptions(path)), nullptr);
  RTreeOptions options = FileOptions(path);
  options.recover_truncated_tail = true;
  auto recovered = RTree<2>::Open(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->size(), 300u);
  std::string error;
  EXPECT_TRUE(recovered->Validate(&error)) << error;
}

TEST(RTreePersistence, JoinOverReopenedTrees) {
  const std::string path_a = test::TempPath("rtree_join_a.pages");
  const std::string path_b = test::TempPath("rtree_join_b.pages");
  const auto a = data::GenerateUniform(300, Rect<2>({0, 0}, {100, 100}), 1);
  const auto b = data::GenerateUniform(300, Rect<2>({0, 0}, {100, 100}), 2);
  {
    RTree<2> ta(FileOptions(path_a));
    for (size_t i = 0; i < a.size(); ++i) {
      ta.Insert(Rect<2>::FromPoint(a[i]), i);
    }
    ta.Flush();
    RTree<2> tb(FileOptions(path_b));
    for (size_t i = 0; i < b.size(); ++i) {
      tb.Insert(Rect<2>::FromPoint(b[i]), i);
    }
    tb.Flush();
  }
  auto ta = RTree<2>::Open(FileOptions(path_a));
  auto tb = RTree<2>::Open(FileOptions(path_b));
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoin<2> join(*ta, *tb, DistanceJoinOptions{});
  JoinResult<2> pair;
  ASSERT_TRUE(join.Next(&pair));
  // The first pair is the globally closest one.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : a) {
    for (const auto& q : b) best = std::min(best, Dist(p, q));
  }
  EXPECT_NEAR(pair.distance, best, 1e-9);
}

}  // namespace
}  // namespace sdj
