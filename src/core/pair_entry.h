// Priority-queue elements of the incremental distance join.
//
// Each element pairs an item from index R1 with an item from index R2
// (Section 2.2.1). An item is a node, an object bounding rectangle (when
// object geometry lives outside the tree), or an object stored directly in a
// leaf. The element key is the MINDIST between the items; ties are broken so
// that object pairs surface first and (configurably) deeper node pairs before
// shallower ones (Section 2.2.2).
#ifndef SDJOIN_CORE_PAIR_ENTRY_H_
#define SDJOIN_CORE_PAIR_ENTRY_H_

#include <cstdint>

#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "geometry/rect.h"

namespace sdj {

// What a queue item refers to.
enum class JoinItemKind : uint8_t {
  kNode = 0,        // R-tree node; rect is the node's MBR, ref its page id
  kObjectRect = 1,  // minimal bounding rect of an external object ("obr")
  kObject = 2,      // object stored directly; rect is its exact geometry
};

// How ties between equal-distance pairs are broken among node pairs
// (Section 2.2.2): depth-first expands deeper pairs first and is the paper's
// recommended default; breadth-first the opposite.
enum class TieBreakPolicy { kDepthFirst, kBreadthFirst };

// One side of a queue element.
template <int Dim>
struct JoinItem {
  Rect<Dim> rect;
  uint64_t ref = 0;   // page id (nodes) or object id (objects/obrs)
  int16_t level = -1; // node level; -1 for objects and obrs
  JoinItemKind kind = JoinItemKind::kObject;

  bool is_node() const { return kind == JoinItemKind::kNode; }
  bool is_object_like() const { return kind != JoinItemKind::kNode; }
};

// A queue element: a pair of items plus its ordering keys.
template <int Dim>
struct PairEntry {
  // Primary queue key. Equals `distance` in normal mode; in reverse
  // (farthest-first) mode it is the negated distance upper bound.
  double key = 0.0;
  // MINDIST between the items (exact distance for object/object pairs).
  double distance = 0.0;
  JoinItem<Dim> item1;
  JoinItem<Dim> item2;
  // Insertion sequence number: the final tie-breaker, for determinism.
  uint64_t seq = 0;
  // 0 = object/object, 1 = contains an obr but no node, 2 = contains a node.
  uint8_t category = 0;
  // Largest node level in the pair (-1 if none): the depth tie-break key.
  int16_t depth = -1;

  bool IsObjectPair() const { return category == 0; }
  bool IsObrPair() const {
    return item1.kind != JoinItemKind::kNode &&
           item2.kind != JoinItemKind::kNode && category == 1;
  }
};

// Computes the tie-break fields of `e` from its items.
template <int Dim>
void FinalizePairMetadata(PairEntry<Dim>* e) {
  const bool has_node = e->item1.is_node() || e->item2.is_node();
  const bool has_obr = e->item1.kind == JoinItemKind::kObjectRect ||
                       e->item2.kind == JoinItemKind::kObjectRect;
  e->category = has_node ? 2 : (has_obr ? 1 : 0);
  e->depth = -1;
  if (e->item1.is_node()) e->depth = e->item1.level;
  if (e->item2.is_node() && e->item2.level > e->depth) {
    e->depth = e->item2.level;
  }
}

// Strict-weak ordering placing the highest-priority pair first ("less than"
// means "dequeued earlier").
template <int Dim>
struct PairEntryCompare {
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;

  bool operator()(const PairEntry<Dim>& a, const PairEntry<Dim>& b) const {
    if (a.key != b.key) return a.key < b.key;
    // Pairs closer to being reportable first (Section 2.2.2).
    if (a.category != b.category) return a.category < b.category;
    if (a.depth != b.depth) {
      // Smaller level = deeper in the tree.
      return tie_break == TieBreakPolicy::kDepthFirst ? a.depth < b.depth
                                                      : a.depth > b.depth;
    }
    return a.seq < b.seq;
  }
};

// PairEntryCompare's three tie-breaks packed into one word that orders the
// same way: category (2 bits), depth rank (6 bits, inverted for
// breadth-first) and seq (56 bits). Ordering by (key, PackedTie) is exactly
// PairEntryCompare's order; MemoryPairQueue relies on it. Valid only for
// entries that satisfy TiePackable.
inline constexpr int kTieSeqBits = 56;

template <int Dim>
bool TiePackable(const PairEntry<Dim>& e) {
  return e.category < 4 && e.depth >= -1 && e.depth + 1 < 64 &&
         e.seq < (uint64_t{1} << kTieSeqBits);
}

template <int Dim>
uint64_t PackedTie(const PairEntry<Dim>& e, TieBreakPolicy tie_break) {
  const uint64_t depth_rank = tie_break == TieBreakPolicy::kDepthFirst
                                  ? static_cast<uint64_t>(e.depth + 1)
                                  : static_cast<uint64_t>(62 - e.depth);
  return (uint64_t{e.category} << 62) | (depth_rank << kTieSeqBits) | e.seq;
}

// MINDIST between two items: a lower bound on the distance of every object
// pair generated from them, and the exact distance for object/object pairs
// whose rects are the exact geometry.
template <int Dim>
double PairMinDist(const JoinItem<Dim>& a, const JoinItem<Dim>& b,
                   Metric metric) {
  return MinDist(a.rect, b.rect, metric);
}

// d_max for the distance join (Sections 2.2.3-2.2.4): an upper bound on the
// distance of EVERY object pair generated from (a, b). Uses the plain
// farthest-corner MAXDIST for node/node pairs and MINMAXDIST-based bounds
// when minimal bounding is known, exactly as the paper prescribes.
template <int Dim>
double PairMaxDist(const JoinItem<Dim>& a, const JoinItem<Dim>& b,
                   Metric metric) {
  const bool a_node = a.is_node();
  const bool b_node = b.is_node();
  if (a_node && b_node) return MaxDist(a.rect, b.rect, metric);
  if (a_node) {
    return b.kind == JoinItemKind::kObject
               ? MaxMinDist(a.rect, b.rect, metric)
               : MaxMinMaxDist(a.rect, b.rect, metric);
  }
  if (b_node) {
    return a.kind == JoinItemKind::kObject
               ? MaxMinDist(b.rect, a.rect, metric)
               : MaxMinMaxDist(b.rect, a.rect, metric);
  }
  // Neither is a node.
  if (a.kind == JoinItemKind::kObject && b.kind == JoinItemKind::kObject) {
    return MinDist(a.rect, b.rect, metric);  // exact
  }
  return MinMaxDist(a.rect, b.rect, metric);
}

// Semi-join d_max for indexes whose NODE regions do not minimally bound
// their contents (e.g., quadtrees — the paper's Section 2.2.2 caveat).
// MINMAXDIST reasoning against a node region is then unavailable, but nodes
// are non-empty, so some object under a node `b` lies within
// MaxDist(a, b) of every o1 under `a`. All other cases (obr and exact-object
// second items) are unaffected — their minimality is intrinsic.
// Note the plain-join PairMaxDist never relies on node-region minimality, so
// it has no loose variant.
template <int Dim>
double SemiPairMaxDistLoose(const JoinItem<Dim>& a, const JoinItem<Dim>& b,
                            Metric metric) {
  if (b.is_node()) return MaxDist(a.rect, b.rect, metric);
  if (a.kind == JoinItemKind::kObject && b.kind == JoinItemKind::kObject) {
    return MinDist(a.rect, b.rect, metric);
  }
  if (b.kind == JoinItemKind::kObject && a.is_node()) {
    return MaxMinDist(a.rect, b.rect, metric);
  }
  return MinMaxDist(a.rect, b.rect, metric);  // b is an obr or exact object
}

// d_max for the distance semi-join (Section 2.3): an upper bound, for every
// object o1 under `a`, on the distance from o1 to its NEAREST object under
// `b`. Exploits that node MBRs minimally bound the union of the objects
// beneath them (every MBR face is touched by some object).
template <int Dim>
double SemiPairMaxDist(const JoinItem<Dim>& a, const JoinItem<Dim>& b,
                       Metric metric) {
  if (a.is_node()) {
    return b.kind == JoinItemKind::kObject
               ? MaxMinDist(a.rect, b.rect, metric)
               : MaxMinMaxDist(a.rect, b.rect, metric);
  }
  // a is a single object / obr.
  if (a.kind == JoinItemKind::kObject && b.kind == JoinItemKind::kObject) {
    return MinDist(a.rect, b.rect, metric);
  }
  return MinMaxDist(a.rect, b.rect, metric);
}

}  // namespace sdj

#endif  // SDJOIN_CORE_PAIR_ENTRY_H_
