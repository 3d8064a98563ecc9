// Priority-queue abstraction for the incremental join, with the default
// fully in-memory implementation (sorted runs under a binary heap of run
// heads; the paper's Section 3.2 uses a pairing heap [13]).
// The hybrid memory/disk implementation lives in core/hybrid_queue.h.
#ifndef SDJOIN_CORE_PAIR_QUEUE_H_
#define SDJOIN_CORE_PAIR_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "core/pair_entry.h"
#include "util/check.h"

namespace sdj {

// Interface over the join's pair priority queue. `Empty`/`Top`/`Pop` are
// non-const because the hybrid implementation migrates pairs between tiers
// lazily when the head is requested.
template <int Dim>
class PairQueue {
 public:
  virtual ~PairQueue() = default;

  virtual void Push(const PairEntry<Dim>& entry) = 0;
  // Pushes `n` entries in order. Equivalent to n Push calls (the comparator
  // is a total order, so the pop stream is insertion-order independent up to
  // that order anyway); implementations may amortize bookkeeping.
  virtual void PushBulk(const PairEntry<Dim>* entries, size_t n) {
    for (size_t i = 0; i < n; ++i) Push(entries[i]);
  }
  virtual bool Empty() = 0;
  // Highest-priority entry; queue must be non-empty.
  virtual const PairEntry<Dim>& Top() = 0;
  virtual PairEntry<Dim> Pop() = 0;
  virtual void Clear() = 0;

  // Live entries (across all tiers for hybrid queues).
  virtual size_t Size() const = 0;
  // High-water mark of Size().
  virtual size_t MaxSize() const = 0;
  // High-water mark of entries held in memory (== MaxSize for the memory
  // queue; smaller for the hybrid queue).
  virtual size_t MaxMemorySize() const = 0;

  // True if the queue lost entries to an unrecoverable I/O failure (hybrid
  // disk tier); the join must surface JoinStatus::kIoError. A memory queue
  // never fails.
  virtual bool io_error() const { return false; }
  // Pushes that fell back to the in-memory overflow tier because the disk
  // tier could not accept them (degradation, not an error).
  virtual uint64_t spill_fallbacks() const { return 0; }

  // Snapshot support (DESIGN.md §11). ForEach visits every live entry in
  // unspecified order; returns false if entries could not all be read (an
  // unreadable hybrid disk page), in which case the snapshot must be
  // abandoned. Non-const because the hybrid implementation pins pages.
  virtual bool ForEach(
      const std::function<void(const PairEntry<Dim>&)>& fn) = 0;
  // The hybrid queue's integer bucket frontier, 0 for memory queues.
  virtual uint64_t TierFrontier() const { return 0; }
  // Restores a saved frontier on an EMPTY queue, so that subsequent pushes
  // classify into the same tiers the saved queue used.
  virtual void RestoreTierFrontier(uint64_t frontier) { (void)frontier; }
};

// Fully in-memory pair queue built from sorted runs.
//
// The join pushes each expansion's children together and pops few of them:
// on the Table 1 join about 94% of queued pairs are never popped, and 82% of
// the runs pushed before the first result never see a pop. So each batch of
// pushes becomes one run, a binary heap holds only the head of every live
// run, and a run is ordered only as far as its pops reach (DESIGN.md §13).
//
// * Staging. Push appends to a staging buffer, which is sealed into one run
//   at the next Top/Pop or when it holds kRunCap entries. PushBulk seals
//   straight from the caller's array, kRunCap entries at a time. Sealing
//   copies each entry once and moves the run's minimum to its front.
// * Ordering on demand. A pop advances the run's cursor; if more entries
//   remain, the smallest of them is moved to the cursor by a linear scan
//   while at most kScanMax remain, else the rest is sorted once (by 16 B
//   keys, then one permuting copy).
// * Head heap. One 24 B head per live run: the head entry's key, its
//   PackedTie word and the run id, so (key, tie) gives exactly the
//   PairEntryCompare order. A pop sifts the new head down once.
// * Storage. Runs are carved from fixed-size slabs. A slab returns to a
//   free list once its last run is drained, and Clear recycles every slab,
//   so a fill/drain/Clear cycle allocates nothing after the first.
template <int Dim>
class MemoryPairQueue final : public PairQueue<Dim> {
  using Entry = PairEntry<Dim>;

 public:
  // Entries per run (the staging cap) and per slab.
  static constexpr size_t kRunCap = 1024;
  static constexpr size_t kSlabEntries = 1024;
  // Longest remainder ordered by a scan per pop rather than one sort.
  static constexpr size_t kScanMax = 64;

  explicit MemoryPairQueue(PairEntryCompare<Dim> cmp)
      : tie_break_(cmp.tie_break) {}

  void Push(const Entry& entry) override {
    staging_.push_back(entry);
    if (staging_.size() == kRunCap) SealStaging();
    ++size_;
    max_size_ = std::max(max_size_, size_);
  }
  void PushBulk(const Entry* entries, size_t n) override {
    SealStaging();
    for (size_t off = 0; off < n; off += kRunCap) {
      Seal(entries + off, std::min(kRunCap, n - off));
    }
    size_ += n;
    max_size_ = std::max(max_size_, size_);
  }
  bool Empty() override { return size_ == 0; }
  const Entry& Top() override {
    SealStaging();
    SDJ_DCHECK(!heads_.empty());
    return *runs_[heads_[0].run].next;
  }
  Entry Pop() override {
    SealStaging();
    SDJ_DCHECK(!heads_.empty());
    Head& head = heads_[0];
    Run& run = runs_[head.run];
    Entry e = *run.next++;
    if (run.next == run.end) {
      ReleaseRun(head.run);
      head = heads_.back();
      heads_.pop_back();
    } else {
      if (!run.sorted) OrderNext(&run);
      head.key = run.next->key;
      head.tie = PackedTie(*run.next, tie_break_);
    }
    if (!heads_.empty()) SiftDown(0);
    --size_;
    return e;
  }
  void Clear() override {
    staging_.clear();
    heads_.clear();
    runs_.clear();
    free_runs_.clear();
    free_slabs_.clear();
    for (uint32_t i = 0; i < slabs_.size(); ++i) {
      slabs_[i].used = 0;
      slabs_[i].live_runs = 0;
      free_slabs_.push_back(i);
    }
    current_slab_ = kNoSlab;
    size_ = 0;
  }
  size_t Size() const override { return size_; }
  size_t MaxSize() const override { return max_size_; }
  size_t MaxMemorySize() const override { return max_size_; }
  bool ForEach(const std::function<void(const Entry&)>& fn) override {
    for (const Entry& e : staging_) fn(e);
    for (const Head& head : heads_) {
      const Run& run = runs_[head.run];
      for (const Entry* p = run.next; p != run.end; ++p) fn(*p);
    }
    return true;
  }

  // Slabs allocated so far (live or on the free list); never shrinks.
  size_t allocated_slabs() const { return slabs_.size(); }

 private:
  static_assert(std::is_trivially_copyable_v<Entry>,
                "runs are filled by plain copies into raw slab storage");
  static_assert(alignof(Entry) <= alignof(std::max_align_t),
                "slab storage relies on default new alignment");
  static_assert(kRunCap <= kSlabEntries, "a run must fit in one slab");
  static constexpr uint32_t kNoSlab = ~uint32_t{0};
  static constexpr uint64_t kSeqMask = (uint64_t{1} << kTieSeqBits) - 1;

  struct Head {
    double key;
    uint64_t tie;
    uint32_t run;
  };
  struct Run {
    Entry* next;  // cursor: the run's head entry
    Entry* end;
    uint32_t slab;
    bool sorted;  // else only the entry at the cursor is in place
  };
  struct Slab {
    std::unique_ptr<std::byte[]> storage;
    uint32_t used = 0;       // entries carved so far
    uint32_t live_runs = 0;  // runs carved and not yet drained
    Entry* entries() { return reinterpret_cast<Entry*>(storage.get()); }
  };
  // Sort key of one entry of a run's remainder: its key, and its PackedTie
  // word with seq replaced by the entry's index in the remainder.
  struct SortKey {
    double key;
    uint64_t word;
  };
  static_assert(sizeof(Head) == 24 && sizeof(SortKey) == 16);

  static bool Before(double a_key, uint64_t a_tie, double b_key,
                     uint64_t b_tie) {
    return a_key != b_key ? a_key < b_key : a_tie < b_tie;
  }
  static bool Before(const Head& a, const Head& b) {
    return Before(a.key, a.tie, b.key, b.tie);
  }

  void SealStaging() {
    if (staging_.empty()) return;
    Seal(staging_.data(), staging_.size());
    staging_.clear();
  }

  // Copies src[0, n) into a new run with its minimum first and pushes its
  // head; 1 <= n <= kRunCap.
  void Seal(const Entry* src, size_t n) {
    const uint32_t slab = SlabFor(n);
    Slab& s = slabs_[slab];
    Entry* dst = s.entries() + s.used;
    for (size_t i = 0; i < n; ++i) {
      SDJ_CHECK(TiePackable(src[i]));
      new (dst + i) Entry(src[i]);
    }
    MoveMinFirst(dst, n);
    s.used += static_cast<uint32_t>(n);
    ++s.live_runs;
    uint32_t id;
    if (free_runs_.empty()) {
      id = static_cast<uint32_t>(runs_.size());
      runs_.emplace_back();
    } else {
      id = free_runs_.back();
      free_runs_.pop_back();
    }
    runs_[id] = Run{dst, dst + n, slab, n <= 2};
    heads_.push_back(Head{dst->key, PackedTie(*dst, tie_break_), id});
    SiftUp(heads_.size() - 1);
  }

  // Swaps the smallest of first[0, n) into first[0]; n >= 1.
  void MoveMinFirst(Entry* first, size_t n) const {
    size_t min = 0;
    uint64_t min_tie = PackedTie(first[0], tie_break_);
    for (size_t i = 1; i < n; ++i) {
      const uint64_t tie = PackedTie(first[i], tie_break_);
      if (Before(first[i].key, tie, first[min].key, min_tie)) {
        min = i;
        min_tie = tie;
      }
    }
    if (min != 0) std::swap(first[0], first[min]);
  }

  // Brings the smallest remaining entry of an unsorted run to its cursor.
  void OrderNext(Run* run) {
    Entry* const first = run->next;
    const size_t n = static_cast<size_t>(run->end - first);
    if (n <= kScanMax) {
      MoveMinFirst(first, n);
      run->sorted = n <= 2;
      return;
    }
    keys_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      keys_[i] = {first[i].key,
                  (PackedTie(first[i], tie_break_) & ~kSeqMask) | i};
    }
    std::sort(keys_.begin(), keys_.end(),
              [first](const SortKey& a, const SortKey& b) {
                if (a.key != b.key) return a.key < b.key;
                if ((a.word ^ b.word) > kSeqMask) return a.word < b.word;
                return first[a.word & kSeqMask].seq <
                       first[b.word & kSeqMask].seq;
              });
    sorted_.clear();
    for (const SortKey& k : keys_) sorted_.push_back(first[k.word & kSeqMask]);
    std::copy(sorted_.begin(), sorted_.end(), first);
    run->sorted = true;
  }

  // A slab with room for `n` more entries: the current one, else a recycled
  // or new one, which becomes current.
  uint32_t SlabFor(size_t n) {
    if (current_slab_ != kNoSlab &&
        slabs_[current_slab_].used + n <= kSlabEntries) {
      return current_slab_;
    }
    if (!free_slabs_.empty()) {
      current_slab_ = free_slabs_.back();
      free_slabs_.pop_back();
    } else {
      current_slab_ = static_cast<uint32_t>(slabs_.size());
      // Not make_unique: that value-initializes (memsets) the whole slab.
      slabs_.push_back(
          Slab{std::unique_ptr<std::byte[]>(
                   new std::byte[kSlabEntries * sizeof(Entry)]),
               0, 0});
    }
    return current_slab_;
  }

  void ReleaseRun(uint32_t id) {
    const uint32_t slab = runs_[id].slab;
    free_runs_.push_back(id);
    Slab& s = slabs_[slab];
    if (--s.live_runs > 0) return;
    s.used = 0;
    if (slab != current_slab_) free_slabs_.push_back(slab);
  }

  void SiftUp(size_t i) {
    const Head h = heads_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(h, heads_[parent])) break;
      heads_[i] = heads_[parent];
      i = parent;
    }
    heads_[i] = h;
  }

  void SiftDown(size_t i) {
    const Head h = heads_[i];
    const size_t n = heads_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Before(heads_[child + 1], heads_[child])) ++child;
      if (!Before(heads_[child], h)) break;
      heads_[i] = heads_[child];
      i = child;
    }
    heads_[i] = h;
  }

  const TieBreakPolicy tie_break_;
  std::vector<Entry> staging_;
  std::vector<SortKey> keys_;  // OrderNext scratch
  std::vector<Entry> sorted_;  // OrderNext scratch
  std::vector<Head> heads_;    // binary min-heap, one head per live run
  std::vector<Run> runs_;      // indexed by run id
  std::vector<uint32_t> free_runs_;
  std::vector<Slab> slabs_;
  std::vector<uint32_t> free_slabs_;
  uint32_t current_slab_ = kNoSlab;
  size_t size_ = 0;
  size_t max_size_ = 0;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_PAIR_QUEUE_H_
