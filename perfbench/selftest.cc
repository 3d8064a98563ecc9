// Self-test of the benchmark's own helpers (harness.h): percentile edge
// cases, the join-stream and result-set oracles against dropped, duplicated,
// reordered and altered pairs, and the seeded input order. run.py runs it
// before every workload; a nonzero exit stops the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "data/generators.h"
#include "harness.h"

namespace sdj::perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentiles() {
  EXPECT(PercentileSorted({}, 50.0) == 0.0);
  EXPECT(PercentileSorted({7.0}, 50.0) == 7.0);
  EXPECT(PercentileSorted({7.0}, 99.0) == 7.0);
  EXPECT(PercentileSorted({1.0, 2.0}, 50.0) == 1.0);
  EXPECT(PercentileSorted({1.0, 2.0}, 51.0) == 2.0);
  const std::vector<double> hundred = Iota(100);
  EXPECT(PercentileSorted(hundred, 50.0) == 50.0);
  EXPECT(PercentileSorted(hundred, 99.0) == 99.0);
  EXPECT(PercentileSorted(hundred, 100.0) == 100.0);
  EXPECT(PercentileSorted(hundred, 0.001) == 1.0);
  // p99.9 of 1000 samples is rank 999 exactly, despite 99.9/100*1000
  // not being representable.
  EXPECT(PercentileSorted(Iota(1000), 99.9) == 999.0);

  EXPECT(SamplesBeyond(0, 50.0) == 0);
  EXPECT(SamplesBeyond(1, 99.0) == 0);
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(TailPercentile(0) == 0.0);
  EXPECT(TailPercentile(19) == 0.0);
  EXPECT(TailPercentile(20) == 50.0);
  EXPECT(TailPercentile(999) == 90.0);
  EXPECT(TailPercentile(1000) == 99.0);
  EXPECT(TailPercentile(10000) == 99.9);

  std::vector<double> shuffled = Iota(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  const LatencySummary s = Summarize(shuffled);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500.0);
  EXPECT(s.p99 == 990.0);
  EXPECT(s.tail_pct == 99.0);
  EXPECT(s.tail == 990.0);
  EXPECT(Summarize({}).count == 0 && Summarize({}).tail == 0.0);

  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestGrid() {
  const Rect<2> extent({0.0, 0.0}, {1000.0, 1000.0});
  const std::vector<Point<2>> a = data::GenerateUniform(300, extent, 11);
  const std::vector<Point<2>> b = data::GenerateUniform(400, extent, 12);
  const double r = 40.0;
  size_t brute = 0;
  for (const Point<2>& p : a) {
    for (const Point<2>& q : b) {
      if (std::hypot(p[0] - q[0], p[1] - q[1]) <= r) ++brute;
    }
  }
  EXPECT(GridPairsWithin(a, b, r).size() == brute);
  EXPECT(brute > 0);
}

void TestJoinOracle() {
  const Rect<2> extent({0.0, 0.0}, {1000.0, 1000.0});
  const std::vector<Point<2>> a = data::GenerateUniform(200, extent, 1);
  const std::vector<Point<2>> b = data::GenerateUniform(300, extent, 2);
  const size_t k = 50;
  const std::vector<PairRec> reference = KClosestReference(a, b, k);
  EXPECT(reference.size() >= k);
  const std::vector<PairRec> good(reference.begin(), reference.begin() + k);
  EXPECT(CheckJoinStream(good, k, reference).empty());

  // Dropped: one pair missing (short stream), or replaced by the next one.
  std::vector<PairRec> dropped = good;
  dropped.erase(dropped.begin() + 10);
  EXPECT(!CheckJoinStream(dropped, k, reference).empty());
  if (reference.size() > k && reference[k].d > reference[k - 1].d) {
    dropped.push_back(reference[k]);
    EXPECT(!CheckJoinStream(dropped, k, reference).empty());
  }
  // Duplicated: a pair reported twice in place of the last one.
  std::vector<PairRec> duplicated = good;
  duplicated[k - 1] = duplicated[k - 2];
  EXPECT(!CheckJoinStream(duplicated, k, reference).empty());
  // Reordered: two pairs of different distance swapped.
  std::vector<PairRec> reordered = good;
  std::swap(reordered[3], reordered[20]);
  EXPECT(reordered[3].d != reordered[20].d);
  EXPECT(!CheckJoinStream(reordered, k, reference).empty());
  // A pair reported with the wrong distance.
  std::vector<PairRec> altered = good;
  altered[5].d = std::nextafter(altered[5].d, 0.0);
  EXPECT(!CheckJoinStream(altered, k, reference).empty());
  // A pair outside the reference set.
  std::vector<PairRec> foreign = good;
  foreign[k - 1].b = static_cast<uint32_t>(b.size());
  EXPECT(!CheckJoinStream(foreign, k, reference).empty());
}

// Each case below trips exactly one of CheckJoinStream's guards: a reference
// with a three-way tie at the k-th distance lets a stream be wrong while its
// count, order and last distance still look right.
void TestJoinOracleGuards() {
  const std::vector<PairRec> reference = {
      {0, 1, 1.0}, {0, 2, 2.0}, {1, 1, 2.0}, {1, 2, 2.0}};
  const size_t k = 3;
  EXPECT(CheckJoinStream({{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 2.0}}, k,
                         reference)
             .empty());
  // Duplicated inside the tie group.
  EXPECT(!CheckJoinStream({{0, 1, 1.0}, {0, 2, 2.0}, {0, 2, 2.0}}, k,
                          reference)
              .empty());
  // Dropped: the closer pair is missing, replaced by a tie-group member.
  EXPECT(!CheckJoinStream({{0, 2, 2.0}, {1, 1, 2.0}, {1, 2, 2.0}}, k,
                          reference)
              .empty());
  // Reordered.
  EXPECT(!CheckJoinStream({{0, 2, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}}, k,
                          reference)
              .empty());
  // Short, and a pair the reference does not have.
  EXPECT(!CheckJoinStream({{0, 1, 1.0}, {0, 2, 2.0}}, k, reference).empty());
  EXPECT(!CheckJoinStream({{0, 1, 1.0}, {0, 2, 2.0}, {2, 2, 2.0}}, k,
                          reference)
              .empty());
}

void TestSetOracle() {
  std::vector<PairRec> reference = {
      {0, 1, 1.0}, {2, 3, 2.0}, {4, 5, 2.0}, {6, 7, 3.0}};
  std::vector<PairRec> stream = {
      {0, 1, 1.0}, {4, 5, 2.0}, {2, 3, 2.0}, {6, 7, 3.0}};
  EXPECT(CheckSameSet(stream, reference).empty());
  std::vector<PairRec> dropped = stream;
  dropped.pop_back();
  EXPECT(!CheckSameSet(dropped, reference).empty());
  std::vector<PairRec> duplicated = stream;
  duplicated[2] = duplicated[1];
  EXPECT(!CheckSameSet(duplicated, reference).empty());
  std::vector<PairRec> reordered = stream;
  std::swap(reordered[0], reordered[3]);
  EXPECT(!CheckSameSet(reordered, reference).empty());
}

void TestSeededInputs() {
  const std::vector<Point<2>> water = data::MakeWater(0.1);
  // The default seed leaves the library's stand-ins exactly as they are.
  EXPECT(ShuffleBlocks(kDefaultSeed, kWaterStream, water) == water);
  EXPECT(ShuffleBlocks(kDefaultSeed, kRoadsStream, data::MakeRoads(0.1)) ==
         data::MakeRoads(0.1));
  // Other seeds: deterministic, a different order, the same points.
  const std::vector<Point<2>> w7 = ShuffleBlocks(7, kWaterStream, water);
  EXPECT(w7 == ShuffleBlocks(7, kWaterStream, water));
  EXPECT(w7 != ShuffleBlocks(8, kWaterStream, water));
  EXPECT(w7 != ShuffleBlocks(7, kRoadsStream, water));
  std::vector<Point<2>> sorted7 = w7;
  std::vector<Point<2>> sorted0 = water;
  EXPECT(sorted7 != sorted0);
  const auto less = [](const Point<2>& x, const Point<2>& y) {
    return x[0] != y[0] ? x[0] < y[0] : x[1] < y[1];
  };
  std::sort(sorted7.begin(), sorted7.end(), less);
  std::sort(sorted0.begin(), sorted0.end(), less);
  EXPECT(sorted7 == sorted0);
}

}  // namespace
}  // namespace sdj::perfbench

int main() {
  sdj::perfbench::TestPercentiles();
  sdj::perfbench::TestGrid();
  sdj::perfbench::TestJoinOracle();
  sdj::perfbench::TestJoinOracleGuards();
  sdj::perfbench::TestSetOracle();
  sdj::perfbench::TestSeededInputs();
  if (sdj::perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                 sdj::perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
