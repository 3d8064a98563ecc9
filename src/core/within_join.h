// Incremental within-distance (epsilon) join: every object pair with
// distance <= eps, streamed by non-decreasing distance — the incremental
// counterpart of baseline/within_join.h (equivalently, a DistanceJoin
// restricted to [0, eps], specialized to the one-bound ladder).
//
// Written as a policy over the shared best-first core (DESIGN.md §13) to
// demonstrate how little a new traversal needs: seeding, an Even-policy
// expansion using the core's batch-scored classify, result filling, and a
// snapshot fingerprint. Everything else — queue tiers, suspension, kIoError
// propagation, parallel classify, serialization — is inherited.
#ifndef SDJOIN_CORE_WITHIN_JOIN_H_
#define SDJOIN_CORE_WITHIN_JOIN_H_

#include <cmath>
#include <cstdint>

#include "core/best_first.h"
#include "core/join_result.h"
#include "core/pair_entry.h"
#include "core/shard_plan.h"
#include "geometry/metrics.h"
#include "geometry/rect_batch.h"
#include "rtree/rtree.h"
#include "util/check.h"

namespace sdj {

// The shared engine options come from EngineOptions. Code screening
// (DESIGN.md §17) engages whenever the tree is quantized: the within join
// always has a fixed finite bound (epsilon) and the one-bound fast ladder.
struct WithinJoinOptions : EngineOptions {
  double epsilon = 0.0;  // report pairs with distance <= epsilon (inclusive)
  // Sharded classify, output-identical to serial (DESIGN.md §10).
  int num_threads = 1;
};

// Usage mirrors DistanceJoin:
//
//   WithinJoinOptions options;
//   options.epsilon = 2.5;
//   IncWithinJoin<2> join(roads, rivers, options);
//   JoinResult<2> pair;
//   while (join.Next(&pair)) Use(pair);   // distances ascend, all <= eps
template <int Dim, typename Index = RTree<Dim>>
class IncWithinJoin
    : public BestFirstEngine<Dim, IncWithinJoin<Dim, Index>, Index,
                             JoinResult<Dim>> {
  using Base = BestFirstEngine<Dim, IncWithinJoin<Dim, Index>, Index,
                               JoinResult<Dim>>;
  friend Base;

 public:
  IncWithinJoin(const Index& tree1, const Index& tree2,
                const WithinJoinOptions& options)
      : Base({&tree1.pool(), &tree2.pool()}, options, options.num_threads),
        tree1_(tree1),
        tree2_(tree2),
        options_(options) {
    SDJ_CHECK(options.epsilon >= 0.0);
    spec_.max_distance = options.epsilon;
    spec_.metric = options.metric;
    if (options.defer_seed) return;
    if (tree1.empty() || tree2.empty()) return;
    left_ = {Item{tree1.RootMbr(), tree1.root(),
                  static_cast<int16_t>(tree1.root_level()),
                  JoinItemKind::kNode}};
    right_ = {Item{tree2.RootMbr(), tree2.root(),
                   static_cast<int16_t>(tree2.root_level()),
                   JoinItemKind::kNode}};
    this->ClassifyAndEnqueue(
        spec_, 1, /*pre_mind=*/nullptr, /*object_pair=*/false,
        [&](size_t) -> const Item& { return left_[0]; },
        [&](size_t) -> const Item& { return right_[0]; });
  }

  // Same contract as DistanceJoin::SaveState/RestoreState.
  bool SaveState(snapshot::Blob* out) {
    if (!this->SaveAllowed()) return false;
    out->PutU32(kStateMagic);
    out->PutU32(kStateVersion);
    out->PutU32(static_cast<uint32_t>(Dim));
    out->PutDouble(options_.epsilon);
    out->PutU64(tree1_.size());
    out->PutU64(tree2_.size());
    return this->SaveCore(out);
  }

  bool RestoreState(snapshot::BlobReader* in) {
    if (in->GetU32() != kStateMagic) return false;
    if (in->GetU32() != kStateVersion) return false;
    if (in->GetU32() != static_cast<uint32_t>(Dim)) return false;
    if (in->GetDouble() != options_.epsilon) return false;
    if (in->GetU64() != tree1_.size()) return false;
    if (in->GetU64() != tree2_.size()) return false;
    if (!in->ok()) return false;
    return this->RestoreCore(in);
  }

  // Sharded<IncWithinJoin> (core/shard_merge.h): every configuration is
  // eligible (fixed bound, no global mutable state), and the join is
  // symmetric, so the item2 scatter fallback is sound.
  static shard::Rule ShardRule(const WithinJoinOptions&) {
    shard::Rule rule;
    rule.item2_fallback = true;
    return rule;
  }

 private:
  using Item = typename Base::Item;
  using Entry = typename Base::Entry;
  using Base::batch1_, Base::batch2_, Base::refs1_, Base::refs2_;
  using Base::left_, Base::right_, Base::mind1_, Base::mind2_;
  using Base::isa_, Base::stats_, Base::MarkIoError, Base::PinDecode;
  using Base::PinDecodeScreened;

  static constexpr uint32_t kStateMagic = 0x534A5745;  // "SJWE"
  // Version 2: screen_codes in the fingerprint, screening counters in the
  // shared stats section.
  // Version 3: the shared options are fingerprinted by the core section.
  static constexpr uint32_t kStateVersion = 3;

  PopAction OnPopped(const Entry& e, JoinResult<Dim>* out) {
    if (!e.IsObjectPair()) return PopAction::kExpand;
    // MINDIST <= eps was enforced at enqueue and is exact for object pairs.
    out->id1 = e.item1.ref;
    out->id2 = e.item2.ref;
    out->rect1 = e.item1.rect;
    out->rect2 = e.item2.rect;
    out->distance = e.distance;
    ++stats_.pairs_reported;
    return PopAction::kReported;
  }

  // Even policy (Section 2.2.2): expand the node at the shallower level.
  bool Expand(const Entry& e) {
    const bool two = e.item1.is_node() && e.item2.is_node() &&
                     e.item2.level > e.item1.level;
    const bool second = two || !e.item1.is_node();
    const Index& tree = second ? tree2_ : tree1_;
    const Item& fixed = second ? e.item1 : e.item2;
    auto& batch = second ? batch2_ : batch1_;
    auto& refs = second ? refs2_ : refs1_;
    auto& mind = second ? mind2_ : mind1_;
    auto& items = second ? right_ : left_;
    bool leaf;
    int level;
    const uint64_t ref = second ? e.item2.ref : e.item1.ref;
    size_t screened = 0;
    if (options_.screen_codes && std::isfinite(options_.epsilon)) {
      if (!PinDecodeScreened(tree, ref, fixed.rect, options_.epsilon, isa_,
                             &batch, &refs, &leaf, &level, &screened)) {
        return MarkIoError();
      }
    } else if (!PinDecode(tree, ref, &batch, &refs, &leaf, &level)) {
      return MarkIoError();
    }
    ++stats_.nodes_expanded;
    mind.resize(batch.size());
    MinDistBatch(batch, fixed.rect, options_.metric, mind.data(), 0,
                 batch.size(), isa_);
    ++stats_.batch_kernel_invocations;
    this->BuildChildItems(batch, refs, leaf, level, JoinItemKind::kObject,
                          &items);
    const bool object_pair = leaf && fixed.kind == JoinItemKind::kObject;
    // Screened-out entries would have reached the classify ladder's
    // `d > epsilon` rung: charge exactly what it charges there.
    if (screened > 0) {
      stats_.total_distance_calcs += screened;
      stats_.pruned_by_range += screened;
      if (object_pair) stats_.object_distance_calcs += screened;
    }
    this->ClassifyAndEnqueue(
        spec_, batch.size(), mind.data(), object_pair,
        [&](size_t i) -> const Item& { return second ? fixed : items[i]; },
        [&](size_t i) -> const Item& { return second ? items[i] : fixed; });
    return true;
  }

  const Index& tree1_;
  const Index& tree2_;
  const WithinJoinOptions options_;
  typename Base::ClassifySpec spec_;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_WITHIN_JOIN_H_
