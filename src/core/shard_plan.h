// Shard planning for the sharded best-first execution stack (DESIGN.md §18).
//
// A shard plan partitions the pair space of one best-first traversal into K
// disjoint groups by SUBTREE SHARDING: a temporary seed engine runs exactly
// one serial pop+expand step (the root expansion), its frontier entries are
// collected, and the entries are scattered into groups keyed by the first
// item's subtree reference. Because no node-processing policy ever moves an
// entry's item out of its subtree — expansions only replace an item with its
// own children — grouping the post-root frontier by item1.ref partitions the
// ENTIRE future pair space: every descendant of a group's entries keeps its
// item1 inside one of that group's subtrees. Each group then seeds one
// independent engine (constructed with defer_seed and AdoptPlanEntries), and
// §2.2 distance-bound consistency holds per shard because every adopted
// entry carries the exact key the serial engine gave it.
//
// The plan also captures the seed step's statistics (S0) and sequence
// counter (n0): the shard engines all continue from n0, and the merged run's
// statistics are S0 plus the per-shard totals — exactly the serial engine's
// counters at exhaustion (core/shard_merge.h documents the two exceptions).
//
// Planning is conservative: any condition it cannot prove partitionable —
// a reportable head instead of an expandable one, an I/O failure, fewer than
// two distinct subtree refs — yields a non-ok() plan and the caller falls
// back to a single unsharded engine, which is always correct.
#ifndef SDJOIN_CORE_SHARD_PLAN_H_
#define SDJOIN_CORE_SHARD_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/join_stats.h"
#include "core/pair_entry.h"

namespace sdj::shard {

// What one engine configuration lets the sharded wrapper (core/shard_merge.h)
// do. Every engine declares a static ShardRule(options, ...) taking its own
// constructor arguments after the two leading ones.
struct Rule {
  // Whether a plan may be tried at all; false runs one passthrough engine.
  bool eligible = true;
  // Whether Scatter may re-key on item2 (see Scatter for when it is sound).
  bool item2_fallback = false;
  // Results stream farthest-first, so the merge pops the largest head.
  bool descending = false;
  // Merge-level result cap (0 = unlimited); each shard also stops there.
  uint64_t max_results = 0;
  // Neighbor-engine semantics: a kSuspended status self-clears in Next().
  bool auto_resume = false;
};

// One computed shard plan. ok() == false means "run unsharded": planning
// could not prove a K >= 2 partition for this configuration.
template <int Dim>
struct Plan {
  // Effective shard count (min of the requested count and the number of
  // distinct subtree refs); < 2 means the plan failed.
  int shards = 1;
  // groups[k] holds the frontier entries shard k adopts. Entry keys and seq
  // numbers are exactly what the seed engine assigned, so each shard's queue
  // pops a subsequence of the serial engine's pop order.
  std::vector<std::vector<PairEntry<Dim>>> groups;
  // Statistics charged by the seed engine's root expansion (S0). Filled by
  // the caller (policies expose stats under different names).
  JoinStats seed_stats;
  // The seed engine's sequence counter after the root expansion (n0). Every
  // shard engine adopts it, so later enqueues tie-break exactly as a serial
  // continuation would (per-shard seq values diverge from serial afterwards,
  // which is harmless: seq only breaks ties WITHIN one queue).
  uint64_t next_seq = 0;

  bool ok() const { return shards >= 2; }
};

// Scatters frontier entries into at most `requested` groups keyed by
// item1.ref, assigning refs round-robin in first-appearance order (a
// deterministic function of the entry list, which is itself a deterministic
// function of the traversal — so a re-run of the plan during restore
// reproduces the same groups). When every item1.ref coincides (the root
// expansion descended the second tree) and `allow_item2_fallback` is set,
// the scatter re-keys on item2.ref instead. The fallback is sound only for
// symmetric traversals (plain and within joins); semi-joins partition their
// per-first-object state (S_o, bound tables) by item1 and must never pass
// it.
template <int Dim>
Plan<Dim> Scatter(const std::vector<PairEntry<Dim>>& entries, int requested,
                  bool allow_item2_fallback) {
  Plan<Dim> plan;
  if (requested < 2 || entries.empty()) return plan;
  const auto try_side = [&](bool second) -> bool {
    // ref -> first-appearance index; group = index % requested.
    std::unordered_map<uint64_t, int> group_of;
    for (const PairEntry<Dim>& e : entries) {
      const uint64_t ref = second ? e.item2.ref : e.item1.ref;
      const int next_index = static_cast<int>(group_of.size());
      group_of.try_emplace(ref, next_index % requested);
    }
    if (group_of.size() < 2) return false;
    const int effective = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(requested), group_of.size()));
    plan.groups.assign(static_cast<size_t>(effective), {});
    for (const PairEntry<Dim>& e : entries) {
      const uint64_t ref = second ? e.item2.ref : e.item1.ref;
      plan.groups[static_cast<size_t>(group_of[ref])].push_back(e);
    }
    plan.shards = effective;
    return true;
  };
  if (!try_side(/*second=*/false) &&
      !(allow_item2_fallback && try_side(/*second=*/true))) {
    plan = Plan<Dim>{};
  }
  return plan;
}

// Pumps a freshly seeded engine one serial step and scatters its frontier.
// `seed` must be a normally constructed (non-defer_seed) engine that has not
// produced any result yet. On success the caller copies the seed's
// engine_stats() into plan.seed_stats before destroying it. A false
// PumpPlanStep — empty tree, reportable head, skip, or I/O failure — or an
// unreadable queue yields a non-ok() plan.
template <int Dim, typename EngineT>
Plan<Dim> BuildFromSeed(EngineT* seed, int requested,
                        bool allow_item2_fallback) {
  Plan<Dim> plan;
  if (requested < 2) return plan;
  if (!seed->PumpPlanStep()) return plan;
  std::vector<PairEntry<Dim>> entries;
  if (!seed->CollectPlanEntries(&entries)) return plan;
  plan = Scatter<Dim>(entries, requested, allow_item2_fallback);
  if (plan.ok()) plan.next_seq = seed->next_seq();
  return plan;
}

}  // namespace sdj::shard

#endif  // SDJOIN_CORE_SHARD_PLAN_H_
