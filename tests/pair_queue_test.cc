// MemoryPairQueue (sorted runs under a binary heap of run heads) checked
// against a pairing-heap oracle over the same PairEntryCompare: randomized
// push/bulk-push/top/pop/clear interleavings under both tie-break policies,
// keys with many exact ties (negative, ±0.0), batches on both sides of the
// run cap, and slab reuse across fill/drain/Clear cycles.
#include "core/pair_queue.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/pair_entry.h"
#include "core/snapshot.h"
#include "util/pairing_heap.h"
#include "util/rng.h"

namespace sdj {
namespace {

using Queue = MemoryPairQueue<2>;
using Oracle = PairingHeap<PairEntry<2>, PairEntryCompare<2>>;
constexpr size_t kCap = Queue::kRunCap;

PairEntry<2> MakeEntry(double key, uint8_t category, int16_t depth,
                       uint64_t seq) {
  PairEntry<2> e;
  e.key = key;
  e.distance = std::fabs(key);
  e.category = category;
  e.depth = depth;
  e.seq = seq;
  e.item1.ref = seq;
  return e;
}

// Same entry, bit for bit in the fields the order and identity depend on.
void ExpectSame(const PairEntry<2>& got, const PairEntry<2>& want) {
  ASSERT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.key, want.key);
  ASSERT_EQ(std::signbit(got.key), std::signbit(want.key));
  ASSERT_EQ(got.category, want.category);
  ASSERT_EQ(got.depth, want.depth);
  ASSERT_EQ(got.item1.ref, want.item1.ref);
}

std::vector<uint64_t> Seqs(Queue* queue) {
  std::vector<uint64_t> out;
  EXPECT_TRUE(queue->ForEach(
      [&out](const PairEntry<2>& e) { out.push_back(e.seq); }));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> Seqs(const Oracle& oracle) {
  std::vector<uint64_t> out;
  oracle.ForEach([&out](const PairEntry<2>& e) { out.push_back(e.seq); });
  std::sort(out.begin(), out.end());
  return out;
}

class PairQueueDiff
    : public ::testing::TestWithParam<std::tuple<uint64_t, TieBreakPolicy>> {
 protected:
  PairQueueDiff()
      : rng_(std::get<0>(GetParam()) * 7919),
        cmp_{std::get<1>(GetParam())},
        queue_(cmp_),
        oracle_(cmp_) {}

  // Keys drawn mostly from a small pool so equal keys — across every
  // category/depth mix — are common; farthest-first keys are negative.
  PairEntry<2> RandomEntry() {
    static constexpr double kPool[] = {-7.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0};
    const double key = rng_.NextDouble() < 0.8
                           ? kPool[rng_.NextBounded(std::size(kPool))]
                           : rng_.Uniform(-50.0, 50.0);
    const auto category = static_cast<uint8_t>(rng_.NextBounded(3));
    // Mostly shallow levels, sometimes the packing's extreme depth.
    const auto depth = static_cast<int16_t>(
        rng_.NextDouble() < 0.05 ? 62
                                 : static_cast<int>(rng_.NextBounded(6)) - 1);
    // Unique but not monotone in push order, reaching up to 2^56 - 1.
    const uint64_t seq =
        (next_id_++ * 0x9E3779B97F4A7C15ULL) & ((uint64_t{1} << 56) - 1);
    return MakeEntry(key, category, depth, seq);
  }

  void PushOne() {
    const PairEntry<2> e = RandomEntry();
    queue_.Push(e);
    oracle_.Push(e);
    max_size_ = std::max(max_size_, oracle_.Size());
  }

  void PushBulk(size_t n) {
    std::vector<PairEntry<2>> batch;
    for (size_t i = 0; i < n; ++i) batch.push_back(RandomEntry());
    queue_.PushBulk(batch.data(), batch.size());
    for (const PairEntry<2>& e : batch) oracle_.Push(e);
    max_size_ = std::max(max_size_, oracle_.Size());
  }

  void PopOne() {
    ASSERT_FALSE(queue_.Empty());
    ExpectSame(queue_.Top(), oracle_.Top());
    ExpectSame(queue_.Pop(), oracle_.Pop());
  }

  void ExpectSizes() {
    ASSERT_EQ(queue_.Size(), oracle_.Size());
    ASSERT_EQ(queue_.Empty(), oracle_.Empty());
    ASSERT_EQ(queue_.MaxSize(), max_size_);
    ASSERT_EQ(queue_.MaxMemorySize(), max_size_);
  }

  Rng rng_;
  PairEntryCompare<2> cmp_;
  Queue queue_;
  Oracle oracle_;
  uint64_t next_id_ = 1;
  size_t max_size_ = 0;
};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, PairQueueDiff,
    ::testing::Combine(::testing::Range<uint64_t>(1, 6),
                       ::testing::Values(TieBreakPolicy::kDepthFirst,
                                         TieBreakPolicy::kBreadthFirst)));

TEST_P(PairQueueDiff, InterleavedOperationsMatchPairingHeap) {
  for (int round = 0; round < 3000; ++round) {
    const double op = rng_.NextDouble();
    if (op < 0.30) {
      PushOne();
    } else if (op < 0.45) {
      PushBulk(rng_.NextBounded(60));  // an expansion's worth, maybe empty
    } else if (op < 0.47) {
      PushBulk(kCap - 2 + rng_.NextBounded(kCap + 4));  // around/over the cap
    } else if (op < 0.48) {
      // Single pushes that cross the staging cap without a Top/Pop.
      const size_t n = kCap - 3 + rng_.NextBounded(8);
      for (size_t i = 0; i < n; ++i) PushOne();
    } else if (op < 0.4805) {
      queue_.Clear();
      oracle_.Clear();
    } else if (op < 0.49) {
      ASSERT_EQ(Seqs(&queue_), Seqs(oracle_));
    } else if (!oracle_.Empty()) {
      // Pops in short bursts, sometimes peeking only.
      const size_t n = 1 + rng_.NextBounded(40);
      for (size_t i = 0; i < n && !oracle_.Empty(); ++i) {
        if (rng_.NextDouble() < 0.1) {
          ExpectSame(queue_.Top(), oracle_.Top());
        } else {
          PopOne();
        }
      }
    }
    ExpectSizes();
  }
  ASSERT_EQ(Seqs(&queue_), Seqs(oracle_));
  while (!oracle_.Empty()) PopOne();
  ExpectSizes();
}

TEST_P(PairQueueDiff, ClearThenReuseMatchesPairingHeap) {
  for (int cycle = 0; cycle < 4; ++cycle) {
    PushBulk(500 + rng_.NextBounded(3000));
    for (int i = 0; i < 700; ++i) PushOne();  // leaves staged entries
    ASSERT_EQ(Seqs(&queue_), Seqs(oracle_));
    for (int i = 0; i < 300; ++i) PopOne();
    queue_.Clear();
    oracle_.Clear();
    ExpectSizes();
    ASSERT_TRUE(Seqs(&queue_).empty());
  }
  PushBulk(2 * kCap + 1);
  while (!oracle_.Empty()) PopOne();
  ExpectSizes();
}

// Equal keys across every category × depth mix pop exactly in
// PairEntryCompare order, with +0.0 and -0.0 tying.
TEST(PairQueue, EqualKeysFollowComparatorUnderBothPolicies) {
  for (TieBreakPolicy policy :
       {TieBreakPolicy::kDepthFirst, TieBreakPolicy::kBreadthFirst}) {
    for (double key : {0.0, -2.5}) {
      std::vector<PairEntry<2>> entries;
      uint64_t seq = 5000;
      for (int rep = 0; rep < 2; ++rep) {
        for (uint8_t category = 0; category < 3; ++category) {
          for (int16_t depth = -1; depth <= 62; ++depth) {
            const double k = key == 0.0 && (seq % 2) ? -0.0 : key;
            entries.push_back(MakeEntry(k, category, depth, seq));
            seq -= 3;  // seq order opposite to push order
          }
        }
      }
      PairEntryCompare<2> cmp{policy};
      Queue queue(cmp);
      // Half as one bulk batch, half as single pushes.
      const size_t half = entries.size() / 2;
      queue.PushBulk(entries.data(), half);
      for (size_t i = half; i < entries.size(); ++i) queue.Push(entries[i]);
      std::sort(entries.begin(), entries.end(), cmp);
      for (const PairEntry<2>& want : entries) ExpectSame(queue.Pop(), want);
      EXPECT_TRUE(queue.Empty());
    }
  }
}

TEST(PairQueue, PackedTieOrdersLikeComparator) {
  Rng rng(17);
  for (TieBreakPolicy policy :
       {TieBreakPolicy::kDepthFirst, TieBreakPolicy::kBreadthFirst}) {
    PairEntryCompare<2> cmp{policy};
    for (int i = 0; i < 20000; ++i) {
      const auto a = MakeEntry(1.0, static_cast<uint8_t>(rng.NextBounded(3)),
                               static_cast<int16_t>(
                                   static_cast<int>(rng.NextBounded(64)) - 1),
                               rng.NextBounded(uint64_t{1} << 56));
      const auto b = MakeEntry(1.0, static_cast<uint8_t>(rng.NextBounded(3)),
                               static_cast<int16_t>(
                                   static_cast<int>(rng.NextBounded(64)) - 1),
                               rng.NextBounded(uint64_t{1} << 56));
      ASSERT_TRUE(TiePackable(a) && TiePackable(b));
      ASSERT_EQ(cmp(a, b), PackedTie(a, policy) < PackedTie(b, policy));
    }
  }
}

TEST(PairQueueDeathTest, UnpackableTieFieldsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PairEntryCompare<2> cmp;
  EXPECT_DEATH(
      {
        Queue queue(cmp);
        queue.Push(MakeEntry(1.0, 2, 63, 1));  // depth + 1 == 64
        queue.Pop();
      },
      "TiePackable");
  EXPECT_DEATH(
      {
        Queue queue(cmp);
        const PairEntry<2> e = MakeEntry(1.0, 0, -1, uint64_t{1} << 56);
        queue.PushBulk(&e, 1);
      },
      "TiePackable");
}

// A snapshot entry whose tie fields the queue could not order is refused at
// read time, so a corrupt snapshot fails RestoreCore instead of aborting.
TEST(PairQueue, SnapshotReaderRefusesUnpackableTieFields) {
  const PairEntry<2> cases[] = {MakeEntry(1.0, 2, 62, 7),   // packable
                                MakeEntry(1.0, 2, 63, 7),   // depth too deep
                                MakeEntry(1.0, 2, -2, 7),   // depth too low
                                MakeEntry(1.0, 4, 0, 7),    // category
                                MakeEntry(1.0, 0, 0, uint64_t{1} << 56)};
  for (size_t i = 0; i < std::size(cases); ++i) {
    snapshot::Blob blob;
    snapshot::WriteEntry(&blob, cases[i]);
    snapshot::BlobReader reader(blob.data(), blob.size());
    PairEntry<2> read;
    EXPECT_EQ(snapshot::ReadEntry(&reader, &read), i == 0) << "case " << i;
  }
}

// Slabs come back through the free list: repeated fill/drain/Clear cycles
// of the same shape allocate nothing after the first.
TEST(PairQueue, SlabsAreReusedAcrossFillDrainClearCycles) {
  Queue queue(PairEntryCompare<2>{});
  auto fill = [&queue] {
    Rng rng(5);  // every cycle pushes and pops the same entries
    uint64_t seq = 0;
    std::vector<PairEntry<2>> batch;
    for (int expansion = 0; expansion < 2000; ++expansion) {
      batch.clear();
      for (int i = 0; i < 38; ++i) {
        batch.push_back(MakeEntry(rng.Uniform(0.0, 100.0), 2, 1, seq++));
      }
      queue.PushBulk(batch.data(), batch.size());
      if (expansion % 10 == 0) queue.Pop();
    }
    for (int i = 0; i < 3000; ++i) {  // a restore-style run of single pushes
      queue.Push(MakeEntry(rng.Uniform(0.0, 100.0), 0, -1, seq++));
    }
  };
  auto partial_drain = [&queue] {
    while (queue.Size() > 10000) queue.Pop();
  };
  fill();
  partial_drain();
  const size_t slabs = queue.allocated_slabs();
  // 76,000 + 3,000 entries need at least this many slabs.
  EXPECT_GE(slabs, (76000 + 3000) / Queue::kSlabEntries);
  for (int cycle = 0; cycle < 5; ++cycle) {
    queue.Clear();
    fill();
    partial_drain();
    EXPECT_EQ(queue.allocated_slabs(), slabs) << "cycle " << cycle;
  }
  while (!queue.Empty()) queue.Pop();  // a full drain frees every slab
  fill();
  partial_drain();
  EXPECT_EQ(queue.allocated_slabs(), slabs);
}

}  // namespace
}  // namespace sdj
