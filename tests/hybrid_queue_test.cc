#include "core/hybrid_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/pair_entry.h"
#include "core/pair_queue.h"
#include "join_test_util.h"
#include "util/rng.h"

namespace sdj {
namespace {

PairEntry<2> MakeEntry(double distance, uint64_t seq) {
  PairEntry<2> e;
  e.key = distance;
  e.distance = distance;
  e.seq = seq;
  e.item1.kind = JoinItemKind::kObject;
  e.item1.ref = seq;
  e.item1.rect = Rect<2>::FromPoint({distance, 0.0});
  e.item2.kind = JoinItemKind::kNode;
  e.item2.ref = seq + 1;
  e.item2.level = 3;
  e.item2.rect = Rect<2>({0, 0}, {distance + 1, 2});
  FinalizePairMetadata(&e);
  return e;
}

HybridPairQueue<2> MakeQueue(double tier_width) {
  HybridQueueOptions options;
  options.tier_width = tier_width;
  options.page_size = 512;
  return HybridPairQueue<2>(PairEntryCompare<2>{}, options);
}

TEST(HybridPairQueue, EmptyInitially) {
  auto q = MakeQueue(1.0);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(HybridPairQueue, SingleElementRoundTrip) {
  auto q = MakeQueue(1.0);
  q.Push(MakeEntry(0.5, 1));
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.Top().distance, 0.5);
  EXPECT_EQ(q.Pop().seq, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(HybridPairQueue, PopsInDistanceOrderAcrossAllTiers) {
  auto q = MakeQueue(2.0);
  // Distances spanning heap (<2), list (<4), and many disk buckets.
  std::vector<double> distances;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    distances.push_back(rng.Uniform(0.0, 100.0));
  }
  for (size_t i = 0; i < distances.size(); ++i) {
    q.Push(MakeEntry(distances[i], i));
  }
  std::sort(distances.begin(), distances.end());
  for (double expected : distances) {
    ASSERT_FALSE(q.Empty());
    ASSERT_DOUBLE_EQ(q.Pop().distance, expected);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(HybridPairQueue, InterleavedPushPop) {
  // Pairs generated mid-run land in whatever tier their distance dictates;
  // ordering must survive. Pushes after pops may only use distances >= the
  // last popped value (the join's consistency property), which we honor.
  auto q = MakeQueue(1.0);
  Rng rng(13);
  std::vector<double> pending;
  double last_pop = 0.0;
  uint64_t seq = 0;
  for (int round = 0; round < 5000; ++round) {
    if (pending.empty() || rng.NextDouble() < 0.55) {
      const double d = last_pop + rng.Uniform(0.0, 20.0);
      pending.push_back(d);
      std::push_heap(pending.begin(), pending.end(), std::greater<>());
      q.Push(MakeEntry(d, seq++));
    } else {
      std::pop_heap(pending.begin(), pending.end(), std::greater<>());
      const double expected = pending.back();
      pending.pop_back();
      ASSERT_DOUBLE_EQ(q.Pop().distance, expected);
      last_pop = expected;
    }
  }
}

TEST(HybridPairQueue, SerializationPreservesAllFields) {
  auto q = MakeQueue(0.5);  // tiny tier: nearly everything goes to disk
  PairEntry<2> original = MakeEntry(42.75, 77);
  original.depth = 5;
  q.Push(original);
  q.Push(MakeEntry(0.1, 1));  // something for the heap
  ASSERT_DOUBLE_EQ(q.Pop().distance, 0.1);
  const PairEntry<2> back = q.Pop();
  EXPECT_EQ(back.key, original.key);
  EXPECT_EQ(back.distance, original.distance);
  EXPECT_EQ(back.seq, original.seq);
  EXPECT_EQ(back.category, original.category);
  EXPECT_EQ(back.depth, original.depth);
  EXPECT_EQ(back.item1.ref, original.item1.ref);
  EXPECT_EQ(back.item1.kind, original.item1.kind);
  EXPECT_EQ(back.item1.rect, original.item1.rect);
  EXPECT_EQ(back.item2.ref, original.item2.ref);
  EXPECT_EQ(back.item2.level, original.item2.level);
  EXPECT_EQ(back.item2.rect, original.item2.rect);
}

TEST(HybridPairQueue, KeepsMostEntriesOutOfMemory) {
  auto q = MakeQueue(1.0);
  // All distances far beyond D2 = 2: everything lands on disk.
  for (int i = 0; i < 10000; ++i) {
    q.Push(MakeEntry(50.0 + (i % 100) * 0.3, i));
  }
  EXPECT_EQ(q.Size(), 10000u);
  EXPECT_LT(q.MaxMemorySize(), 100u);
  EXPECT_GT(q.disk_stats().physical_writes, 0u);
  // Draining still works and stays ordered.
  double last = 0.0;
  while (!q.Empty()) {
    const double d = q.Pop().distance;
    ASSERT_GE(d, last);
    last = d;
  }
}

TEST(HybridPairQueue, ClearResetsState) {
  auto q = MakeQueue(1.0);
  for (int i = 0; i < 100; ++i) q.Push(MakeEntry(i * 0.9, i));
  q.Clear();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  q.Push(MakeEntry(3.0, 1));
  EXPECT_DOUBLE_EQ(q.Pop().distance, 3.0);
}

TEST(HybridPairQueue, FileBackedSpill) {
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 512;
  options.spill_path = test::TempPath("sdj_hybrid_spill.bin");
  HybridPairQueue<2> q(PairEntryCompare<2>{}, options);
  std::vector<double> distances;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    distances.push_back(rng.Uniform(0.0, 50.0));
    q.Push(MakeEntry(distances.back(), i));
  }
  std::sort(distances.begin(), distances.end());
  for (double expected : distances) {
    ASSERT_DOUBLE_EQ(q.Pop().distance, expected);
  }
}

// Asserts the spill-page accounting invariant: every page the spill file
// ever allocated is live in a chain, parked on the free list, or counted
// abandoned — never untracked.
void ExpectPageInvariant(const HybridPairQueue<2>& q) {
  const SpillPageStats s = q.spill_pages();
  ASSERT_EQ(s.allocated, s.live + s.free + s.abandoned);
}

TEST(HybridPairQueue, SpillPagesBoundedAcrossFillDrainCycles) {
  auto q = MakeQueue(1.0);
  uint64_t allocated_after_first = 0;
  uint64_t seq = 0;
  double base = 10.0;
  for (int round = 1; round <= 10; ++round) {
    // Same draws every round (shifted by an integer base), so each round
    // demands exactly the same pages; all distances sit above the frontier
    // the previous drain advanced to, so everything spills.
    Rng rng(100);
    std::vector<double> distances;
    for (int i = 0; i < 1000; ++i) {
      distances.push_back(base + rng.Uniform(0.0, 50.0));
    }
    for (double d : distances) q.Push(MakeEntry(d, seq++));
    ExpectPageInvariant(q);
    std::sort(distances.begin(), distances.end());
    for (double expected : distances) {
      ASSERT_DOUBLE_EQ(q.Pop().distance, expected);
    }
    ASSERT_TRUE(q.Empty());
    const SpillPageStats s = q.spill_pages();
    ASSERT_EQ(s.allocated, s.live + s.free + s.abandoned);
    EXPECT_EQ(s.abandoned, 0u);
    if (round == 1) {
      allocated_after_first = s.allocated;
      ASSERT_GT(allocated_after_first, 0u);
    } else {
      // The file never grows past the first cycle's footprint: every later
      // cycle is served from the free list.
      EXPECT_EQ(s.allocated, allocated_after_first) << "round " << round;
      EXPECT_GT(s.reused, 0u);
    }
    base += 100.0;
  }
}

TEST(HybridPairQueue, ClearRecyclesDiskPages) {
  auto q = MakeQueue(1.0);
  for (int i = 0; i < 500; ++i) q.Push(MakeEntry(20.0 + (i % 40) * 0.5, i));
  const SpillPageStats before = q.spill_pages();
  ASSERT_GT(before.live, 0u);
  q.Clear();
  const SpillPageStats cleared = q.spill_pages();
  EXPECT_EQ(cleared.live, 0u);
  EXPECT_EQ(cleared.free, before.live + before.free);
  EXPECT_EQ(cleared.allocated, before.allocated);
  // The same volume again reuses the recycled chains; the file stays put.
  for (int i = 0; i < 500; ++i) q.Push(MakeEntry(20.0 + (i % 40) * 0.5, i));
  const SpillPageStats after = q.spill_pages();
  EXPECT_EQ(after.allocated, before.allocated);
  EXPECT_GT(after.reused, 0u);
  ExpectPageInvariant(q);
}

TEST(HybridPairQueue, BucketIndexAdversarialDistances) {
  using Q = HybridPairQueue<2>;
  const double inf = std::numeric_limits<double>::infinity();
  // Garbage quotients saturate to bucket 0 instead of hitting the undefined
  // negative/NaN float-to-uint64 cast.
  EXPECT_EQ(Q::BucketIndex(std::nan(""), 1.0), 0u);
  EXPECT_EQ(Q::BucketIndex(-1.0, 1.0), 0u);
  EXPECT_EQ(Q::BucketIndex(-inf, 1.0), 0u);
  EXPECT_EQ(Q::BucketIndex(0.0, 1.0), 0u);
  EXPECT_EQ(Q::BucketIndex(std::numeric_limits<double>::denorm_min(), 1.0),
            0u);
  EXPECT_EQ(Q::BucketIndex(1.0, std::nan("")), 0u);
  // Over-range quotients saturate to the top bucket (also out of the UB
  // cast's way).
  const uint64_t top = Q::BucketIndex(inf, 1.0);
  EXPECT_EQ(top, static_cast<uint64_t>(9.0e15));
  EXPECT_EQ(Q::BucketIndex(1e300, 1.0), top);
  EXPECT_EQ(Q::BucketIndex(1.0, 5e-324), top);
  // Ordinary values still index their [k*dt, (k+1)*dt) bucket.
  EXPECT_EQ(Q::BucketIndex(1.5, 1.0), 1u);
  EXPECT_EQ(Q::BucketIndex(2.0, 0.5), 4u);
  // Property: monotone non-decreasing in distance for any tier width.
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double dt = rng.Uniform(1e-6, 10.0);
    const double a = rng.Uniform(-1e9, 1e9);
    const double b = a + rng.Uniform(0.0, 1e9);
    ASSERT_LE(Q::BucketIndex(a, dt), Q::BucketIndex(b, dt))
        << "a=" << a << " b=" << b << " dt=" << dt;
  }
}

TEST(HybridPairQueue, SpillPageAccountingSurvivesRecoveredFaults) {
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 512;
  options.retry.backoff_us = 0;  // keep retries fast in tests
  storage::FaultInjectionOptions faults;
  faults.seed = 7;
  faults.transient_read_rate = 0.05;
  faults.transient_write_rate = 0.05;
  options.fault_injection = faults;
  HybridPairQueue<2> q(PairEntryCompare<2>{}, options);
  uint64_t seq = 0;
  double base = 10.0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 800; ++i) {
      q.Push(MakeEntry(base + (i % 60) * 0.7, seq++));
      if (i % 97 == 0) ExpectPageInvariant(q);
    }
    double last = 0.0;
    while (!q.Empty()) {
      const double d = q.Pop().distance;
      ASSERT_GE(d, last);
      last = d;
    }
    ExpectPageInvariant(q);
    EXPECT_FALSE(q.io_error());  // bounded retries absorb transient faults
    base += 100.0;
  }
}

TEST(HybridPairQueue, SpillPageAccountingSurvivesUnrecoveredFaults) {
  // No retries: transient faults become real pin/new-page failures, driving
  // the overflow fallback, the failed-tail-link free-list path, and page
  // abandonment. Whatever happens, no page may go untracked.
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 512;
  options.retry.max_attempts = 1;
  options.retry.backoff_us = 0;
  storage::FaultInjectionOptions faults;
  faults.seed = 11;
  faults.transient_read_rate = 0.10;
  faults.transient_write_rate = 0.10;
  options.fault_injection = faults;
  HybridPairQueue<2> q(PairEntryCompare<2>{}, options);
  uint64_t seq = 0;
  double base = 10.0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 800; ++i) {
      q.Push(MakeEntry(base + (i % 60) * 0.7, seq++));
      if (i % 97 == 0) {
        // A failure here prints the exact op-index schedule injected so far,
        // so the run can be replayed deterministically (DESIGN.md §16).
        SCOPED_TRACE("fault schedule: " + q.injector()->ScheduleString());
        ExpectPageInvariant(q);
      }
    }
    // Entries may be lost to read faults (reported via io_error), but the
    // surviving stream stays ordered and the accounting stays exact.
    double last = 0.0;
    while (!q.Empty()) {
      const double d = q.Pop().distance;
      ASSERT_GE(d, last) << "fault schedule: "
                         << q.injector()->ScheduleString();
      last = d;
    }
    {
      SCOPED_TRACE("fault schedule: " + q.injector()->ScheduleString());
      ExpectPageInvariant(q);
    }
    base += 100.0;
  }
  const SpillPageStats s = q.spill_pages();
  const storage::IoStats io = q.disk_stats();
  // The schedule above must actually have exercised a failure path.
  EXPECT_GT(q.spill_fallbacks() + s.abandoned + io.read_failures +
                io.write_failures,
            0u)
      << "fault schedule: " << q.injector()->ScheduleString();
}

TEST(HybridPairQueue, TieBreakOrderMaintainedWithinHeap) {
  // Equal distances: object pairs must surface before node pairs.
  auto q = MakeQueue(10.0);
  PairEntry<2> node_pair = MakeEntry(1.0, 1);
  node_pair.item1.kind = JoinItemKind::kNode;
  node_pair.item1.level = 2;
  FinalizePairMetadata(&node_pair);
  PairEntry<2> obj_pair = MakeEntry(1.0, 2);
  obj_pair.item2.kind = JoinItemKind::kObject;
  obj_pair.item2.level = -1;
  FinalizePairMetadata(&obj_pair);
  q.Push(node_pair);
  q.Push(obj_pair);
  EXPECT_EQ(q.Pop().seq, 2u);  // the object/object pair first
  EXPECT_EQ(q.Pop().seq, 1u);
}

}  // namespace
}  // namespace sdj
