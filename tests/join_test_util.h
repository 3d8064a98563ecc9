// Shared helpers for the test suites: per-process temporary paths, tree
// construction from point sets, and brute-force reference results.
#ifndef SDJOIN_TESTS_JOIN_TEST_UTIL_H_
#define SDJOIN_TESTS_JOIN_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "rtree/rtree.h"
#include "util/check.h"

namespace sdj::test {

// A path for `name` inside a directory private to this test process.
// ctest runs every discovered TEST as its own process, in parallel under
// -j, so fixed names in the shared ::testing::TempDir() would race. The
// directory is created on first use and removed when the process that
// created it exits. Death-test children share their parent's directory: a
// forked child inherits the static, a re-executed one the environment.
inline std::string TempPath(const std::string& name) {
  struct Dir {
    std::string path;
    pid_t owner = 0;
    Dir() {
      if (const char* inherited = std::getenv("SDJ_TEST_TMPDIR")) {
        path = inherited;
        return;
      }
      path = ::testing::TempDir() + "sdj_test_XXXXXX";
      SDJ_CHECK(::mkdtemp(path.data()) != nullptr);
      ::setenv("SDJ_TEST_TMPDIR", path.c_str(), /*overwrite=*/1);
      owner = ::getpid();
    }
    ~Dir() {
      if (::getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path + "/" + name;
}

// Builds a small-node R-tree over `points` with object ids = indices.
inline RTree<2> BuildPointTree(const std::vector<Point<2>>& points,
                               uint32_t page_size = 512,
                               bool bulk = true,
                               NodeEncoding encoding = NodeEncoding::kRaw) {
  RTreeOptions options;
  options.page_size = page_size;
  options.encoding = encoding;
  RTree<2> tree(options);
  if (bulk) {
    std::vector<RTree<2>::Entry> entries;
    entries.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      entries.push_back({Rect<2>::FromPoint(points[i]), i});
    }
    tree.BulkLoad(std::move(entries));
  } else {
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(points[i]), i);
    }
  }
  return tree;
}

struct RefPair {
  double distance;
  size_t id1;
  size_t id2;
};

// All |a| x |b| pairs sorted by distance (ascending).
inline std::vector<RefPair> BruteForcePairs(const std::vector<Point<2>>& a,
                                            const std::vector<Point<2>>& b,
                                            Metric metric = Metric::kEuclidean) {
  std::vector<RefPair> pairs;
  pairs.reserve(a.size() * b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      pairs.push_back({Dist(a[i], b[j], metric), i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const RefPair& x, const RefPair& y) {
    return x.distance < y.distance;
  });
  return pairs;
}

// For each a[i], the distance to its nearest b (the semi-join reference),
// sorted ascending.
inline std::vector<double> BruteForceSemiDistances(
    const std::vector<Point<2>>& a, const std::vector<Point<2>>& b,
    Metric metric = Metric::kEuclidean) {
  std::vector<double> nearest(a.size(),
                              std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < a.size(); ++i) {
    for (const auto& q : b) {
      nearest[i] = std::min(nearest[i], Dist(a[i], q, metric));
    }
  }
  std::sort(nearest.begin(), nearest.end());
  return nearest;
}

// Per-object nearest distance (unsorted, indexed by a's ids).
inline std::vector<double> BruteForceNearestByObject(
    const std::vector<Point<2>>& a, const std::vector<Point<2>>& b,
    Metric metric = Metric::kEuclidean) {
  std::vector<double> nearest(a.size(),
                              std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < a.size(); ++i) {
    for (const auto& q : b) {
      nearest[i] = std::min(nearest[i], Dist(a[i], q, metric));
    }
  }
  return nearest;
}

}  // namespace sdj::test

#endif  // SDJOIN_TESTS_JOIN_TEST_UTIL_H_
