#include "data/dataset_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "join_test_util.h"

namespace sdj::data {
namespace {

TEST(DatasetIo, RoundTrip) {
  const std::string path = test::TempPath("roundtrip.csv");
  const std::vector<Point<2>> points = {
      {1.5, 2.5}, {-3.25, 0.0}, {1e-9, 12345678.9}};
  ASSERT_TRUE(SavePointsCsv(path, points));
  std::vector<Point<2>> loaded;
  ASSERT_TRUE(LoadPointsCsv(path, &loaded));
  ASSERT_EQ(loaded.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i][0], points[i][0]);
    EXPECT_DOUBLE_EQ(loaded[i][1], points[i][1]);
  }
}

TEST(DatasetIo, EmptyFileLoadsEmpty) {
  const std::string path = test::TempPath("empty.csv");
  ASSERT_TRUE(SavePointsCsv(path, {}));
  std::vector<Point<2>> loaded;
  ASSERT_TRUE(LoadPointsCsv(path, &loaded));
  EXPECT_TRUE(loaded.empty());
}

TEST(DatasetIo, SkipsCommentsAndBlankLines) {
  const std::string path = test::TempPath("comments.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header comment\n1,2\n\n3,4\n", f);
  std::fclose(f);
  std::vector<Point<2>> loaded;
  ASSERT_TRUE(LoadPointsCsv(path, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], (Point<2>{1, 2}));
  EXPECT_EQ(loaded[1], (Point<2>{3, 4}));
}

TEST(DatasetIo, MalformedLineFails) {
  const std::string path = test::TempPath("malformed.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1,2\nnot-a-number\n3,4\n", f);
  std::fclose(f);
  std::vector<Point<2>> loaded;
  EXPECT_FALSE(LoadPointsCsv(path, &loaded));
  EXPECT_EQ(loaded.size(), 1u);  // the valid prefix
}

TEST(DatasetIo, MissingFileFails) {
  std::vector<Point<2>> loaded;
  EXPECT_FALSE(LoadPointsCsv(test::TempPath("does-not-exist.csv"), &loaded));
}

TEST(DatasetIo, MissingCommaFails) {
  const std::string path = test::TempPath("nocomma.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2\n", f);
  std::fclose(f);
  std::vector<Point<2>> loaded;
  EXPECT_FALSE(LoadPointsCsv(path, &loaded));
}

}  // namespace
}  // namespace sdj::data
