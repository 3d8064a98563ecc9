// Sharded best-first execution: K independent shard engines behind a k-way
// frontier merge (DESIGN.md §18).
//
// Layer 2 and 3 of the sharded stack (layer 1, the plan, is
// core/shard_plan.h): each shard is a completely ordinary best-first engine
// — its own queue (hybrid tiers included), its own JoinStats, its own
// classify threads — seeded with one disjoint group of the post-root
// frontier. A persistent producer thread per shard pulls results into a
// small bounded buffer, and the consumer emits the globally next result by
// popping the best buffered head.
//
// THE MERGE-FRONTIER INVARIANT that makes this correct: every shard emits
// its results in nondecreasing key order (nonincreasing for farthest-first),
// so a shard's buffered head lower-bounds everything that shard will ever
// produce. Taking the best head over all shards — ties broken by shard
// index — therefore yields a globally sorted stream, which is the serial
// engine's stream (the serial engine emits the same multiset, sorted, with
// equal-key runs ordered by its internal tie-break; see DESIGN.md §18 for
// the equal-distance caveat).
//
// Cross-cutting behavior threads through the merge rather than being
// re-implemented per shard:
//   * kIoError: a dead shard's unproduced results all lie at or past its
//     last produced key, so the merge keeps emitting other shards' heads
//     strictly below that key, then fails — the emitted stream is a valid
//     prefix of the serial stream, exactly like a serial engine's I/O stop.
//   * StopToken: polled at merge-level pops (the wrapper's safe point);
//     shard engines run with a cleared token and park between Next() calls,
//     which are precisely the serial loop's safe points.
//   * SaveState/RestoreState: the wrapper quiesces every producer, then
//     frames the per-shard engine snapshots together with the merge cursor
//     (emitted count, per-shard terminal states, and the buffered results
//     that have left their engines but not yet the merge).
//   * Statistics: merged totals are the plan's seed stats plus each shard's
//     counters via JoinStats::MergeFrom; the four pool-derived counters are
//     re-derived from wrapper-owned pool baselines (per-shard deltas on a
//     shared pool would multi-count). At exhaustion every counter equals the
//     serial engine's except max_queue_size (disjoint per-shard peaks; the
//     merge reports their max) and parallel_expansions — the same two
//     already excluded from cross-config comparisons.
#ifndef SDJOIN_CORE_SHARD_MERGE_H_
#define SDJOIN_CORE_SHARD_MERGE_H_

#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/best_first.h"
#include "core/distance_join.h"
#include "core/env_knobs.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/semi_join.h"
#include "core/shard_plan.h"
#include "core/snapshot.h"
#include "core/within_join.h"
#include "geometry/point.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "util/check.h"
#include "util/stop_token.h"

namespace sdj::shard {

// ---- result wire format (buffered-result serialization) ----

// Results buffered between a shard engine and the merge cannot be re-derived
// on restore (their engines have already advanced past them), so the wrapper
// snapshot carries them verbatim. One generic writer covers both result
// shapes (JoinResult and NeighborResult).
template <int Dim, typename ResultT>
void WriteMergeResult(snapshot::Blob* out, const ResultT& r) {
  if constexpr (requires { r.id1; }) {
    out->PutU64(static_cast<uint64_t>(r.id1));
    out->PutU64(static_cast<uint64_t>(r.id2));
    out->PutBytes(r.rect1.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect1.hi.coords.data(), 8 * Dim);
    out->PutBytes(r.rect2.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect2.hi.coords.data(), 8 * Dim);
  } else {
    out->PutU64(static_cast<uint64_t>(r.id));
    out->PutBytes(r.rect.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect.hi.coords.data(), 8 * Dim);
  }
  out->PutDouble(r.distance);
}

template <int Dim, typename ResultT>
bool ReadMergeResult(snapshot::BlobReader* in, ResultT* r) {
  if constexpr (requires { r->id1; }) {
    r->id1 = static_cast<ObjectId>(in->GetU64());
    r->id2 = static_cast<ObjectId>(in->GetU64());
    in->GetBytes(r->rect1.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect1.hi.coords.data(), 8 * Dim);
    in->GetBytes(r->rect2.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect2.hi.coords.data(), 8 * Dim);
  } else {
    r->id = static_cast<ObjectId>(in->GetU64());
    in->GetBytes(r->rect.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect.hi.coords.data(), 8 * Dim);
  }
  r->distance = in->GetDouble();
  return in->ok();
}

// ---- the k-way frontier merge ----

// Producer-thread merge over K shard engines. One consumer (the wrapper's
// Next caller) at a time; producers only touch their own engine and slot.
// Every slot field is protected by mu_; engines are handed between a parked
// producer and the consumer through the idle flag (set and read under mu_,
// so the handoff is a proper happens-before edge — TSan-clean).
template <int Dim, typename EngineT, typename ResultT>
class FrontierMerge {
 public:
  // Per-shard lookahead: enough to overlap shard expansion with the merge,
  // small enough that capped runs stop shard work promptly.
  static constexpr size_t kLookahead = 4;

  struct Slot {
    std::unique_ptr<EngineT> engine;
    std::deque<ResultT> buffer;  // produced, not yet emitted
    bool done = false;           // engine returned false (terminal below)
    JoinStatus terminal = JoinStatus::kOk;
    double last_key = 0.0;  // distance of the newest produced result
    bool has_last = false;
    bool idle = true;  // producer parked (engine at a safe point)
    std::thread thread;
  };

  FrontierMerge() = default;
  ~FrontierMerge() { StopThreads(); }
  FrontierMerge(const FrontierMerge&) = delete;
  FrontierMerge& operator=(const FrontierMerge&) = delete;

  void Init(std::vector<std::unique_ptr<EngineT>> engines, bool descending) {
    SDJ_CHECK(!started_ && slots_.empty());
    descending_ = descending;
    slots_.reserve(engines.size());
    for (auto& engine : engines) {
      Slot slot;
      slot.engine = std::move(engine);
      slots_.push_back(std::move(slot));
    }
  }

  bool initialized() const { return !slots_.empty(); }
  size_t shard_count() const { return slots_.size(); }
  std::vector<Slot>& slots() { return slots_; }
  JoinStatus status() const { return status_; }
  uint64_t merge_pops() const { return merge_pops_; }

  // Emits the globally next result; false once the merged stream ended —
  // status() then reports kExhausted or kIoError.
  bool Next(ResultT* out) {
    if (status_ != JoinStatus::kOk) return false;
    EnsureStarted();
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
    cv_.wait(lk, [&] { return HeadsReady(); });
    // Failed-shard bound: a dead shard's unproduced results all lie at or
    // past its last produced key, so nothing at or past the tightest such
    // key is guaranteed complete.
    double bound = 0.0;
    bool have_bound = false;
    for (const Slot& s : slots_) {
      if (!s.done || s.terminal != JoinStatus::kIoError) continue;
      if (!s.has_last) {
        // Died before producing anything: no complete prefix exists.
        status_ = JoinStatus::kIoError;
        return false;
      }
      if (!have_bound || Before(s.last_key, bound)) bound = s.last_key;
      have_bound = true;
    }
    int best = -1;
    for (size_t k = 0; k < slots_.size(); ++k) {
      if (slots_[k].buffer.empty()) continue;
      if (best < 0 || Before(slots_[k].buffer.front().distance,
                             slots_[static_cast<size_t>(best)]
                                 .buffer.front()
                                 .distance)) {
        best = static_cast<int>(k);
      }
    }
    if (best < 0) {
      status_ = have_bound ? JoinStatus::kIoError : JoinStatus::kExhausted;
      return false;
    }
    Slot& winner = slots_[static_cast<size_t>(best)];
    if (have_bound && !Before(winner.buffer.front().distance, bound)) {
      status_ = JoinStatus::kIoError;
      return false;
    }
    *out = std::move(winner.buffer.front());
    winner.buffer.pop_front();
    ++merge_pops_;
    cv_.notify_all();  // the winner's producer can refill
    return true;
  }

  // Parks every producer at an engine safe point (between Next calls). The
  // caller may then read or serialize the shard engines from its own thread.
  void Quiesce() {
    if (!started_) return;
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return AllIdle(); });
  }

  void Resume() {
    if (!started_) return;
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
  }

  // Joins every producer (for destruction and RestoreState). Threads restart
  // lazily on the next Next() call, re-reading whatever slot state the
  // caller rebuilt in between.
  void StopThreads() {
    if (!started_) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    for (Slot& s : slots_) {
      if (s.thread.joinable()) s.thread.join();
    }
    started_ = false;
    stop_ = false;
    paused_ = false;
    for (Slot& s : slots_) s.idle = true;
  }

  // RestoreState support: overwrites the merge-level cursor.
  void RestoreVerdict(JoinStatus status, uint64_t merge_pops) {
    status_ = status;
    merge_pops_ = merge_pops;
  }

 private:
  bool Before(double a, double b) const {
    return descending_ ? a > b : a < b;
  }

  // Every slot has a buffered head or is terminal; the best head is then
  // provably the globally next result.
  bool HeadsReady() const {
    for (const Slot& s : slots_) {
      if (s.buffer.empty() && !s.done) return false;
    }
    return true;
  }

  bool AllIdle() const {
    for (const Slot& s : slots_) {
      if (!s.idle) return false;
    }
    return true;
  }

  void EnsureStarted() {
    if (started_) return;
    started_ = true;
    for (Slot& s : slots_) {
      s.thread = std::thread([this, slot = &s] { ProducerLoop(slot); });
    }
  }

  void ProducerLoop(Slot* s) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      while (!stop_ &&
             (paused_ || s->done || s->buffer.size() >= kLookahead)) {
        s->idle = true;
        cv_.notify_all();
        cv_.wait(lk);
      }
      if (stop_) break;
      s->idle = false;
      lk.unlock();
      ResultT r;
      const bool got = s->engine->Next(&r);
      lk.lock();
      if (got) {
        s->last_key = r.distance;
        s->has_last = true;
        s->buffer.push_back(std::move(r));
      } else {
        s->done = true;
        s->terminal = s->engine->status();
      }
      s->idle = true;
      cv_.notify_all();
    }
    s->idle = true;
    cv_.notify_all();
  }

  std::vector<Slot> slots_;
  bool descending_ = false;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool stop_ = false;

  JoinStatus status_ = JoinStatus::kOk;  // kOk | kExhausted | kIoError
  uint64_t merge_pops_ = 0;
};

}  // namespace sdj::shard

namespace sdj {

// ---- the sharded wrapper ----

// Sharded<Engine> behaves exactly like Engine — same constructor arguments,
// same stream, same statistics at exhaustion — but runs options.shards
// independent engines behind the frontier merge. Its one constructor plans
// (a seed engine runs the root expansion, core/shard_plan.h) and then either
// adopts K shard engines or, when the plan fails or K < 2, one passthrough
// engine that runs with zero threads. What differs per policy is the
// engine's static ShardRule (shard::Rule): whether a configuration may be
// sharded at all, whether the item2 scatter fallback is sound, the merge
// direction, a merge-level result cap, and NN-style auto-resume.
//
// Engine must be a best-first engine (core/best_first.h) whose options
// struct derives from EngineOptions and whose constructor takes
// (index, second, options, rest...): `second` is the other tree for the
// joins and the query point for the neighbor engines.
template <typename Engine>
class Sharded {
 public:
  static constexpr int Dim = Engine::kDim;
  using Index = typename Engine::IndexType;
  using Result = typename Engine::Result;
  using Second = std::conditional_t<std::is_same_v<Result, JoinResult<Dim>>,
                                    Index, Point<Dim>>;
  using StatsShape =
      std::decay_t<decltype(std::declval<const Engine&>().stats())>;

  template <typename Options, typename... Rest>
    requires std::derived_from<Options, EngineOptions>
  Sharded(const Index& first, const Second& second, const Options& options,
          const Rest&... rest)
      : pools_(PoolsOf(first, second)),
        base_node_misses_(PoolMisses(pools_)),
        base_node_accesses_(PoolAccesses(pools_)),
        base_io_retries_(PoolRetries(pools_)),
        base_checksum_failures_(PoolChecksumFailures(pools_)) {
    const shard::Rule rule = Engine::ShardRule(options, rest...);
    const int requested = env_knobs::ResolveShards(options.shards);
    shard::Plan<Dim> plan;
    if (rule.eligible && requested >= 2) {
      Options seed_options = options;
      ForShard(&seed_options, /*shard=*/-1);
      // One root expansion needs no classify pool.
      if constexpr (requires { seed_options.num_threads; }) {
        seed_options.num_threads = 1;
      }
      Engine seed(first, second, seed_options, rest...);
      plan = shard::BuildFromSeed<Dim>(&seed, requested, rule.item2_fallback);
      if (plan.ok()) plan.seed_stats = seed.engine_stats();
    }
    if (!plan.ok()) {
      passthrough_ = std::make_unique<Engine>(first, second, options, rest...);
      return;
    }
    std::vector<std::unique_ptr<Engine>> engines;
    engines.reserve(plan.groups.size());
    for (size_t k = 0; k < plan.groups.size(); ++k) {
      Options shard_options = options;
      ForShard(&shard_options, static_cast<int>(k));
      auto engine =
          std::make_unique<Engine>(first, second, shard_options, rest...);
      engine->AdoptPlanEntries(plan.groups[k], plan.next_seq);
      engines.push_back(std::move(engine));
    }
    seed_stats_ = plan.seed_stats;
    stop_token_ = options.stop_token;
    max_results_ = rule.max_results;
    auto_resume_ = rule.auto_resume;
    merge_.Init(std::move(engines), rule.descending);
  }

  bool Next(Result* out) {
    SDJ_CHECK(out != nullptr);
    if (passthrough_ != nullptr) return passthrough_->Next(out);
    if (auto_resume_ && status_ == JoinStatus::kSuspended) {
      status_ = JoinStatus::kOk;
    }
    if (status_ != JoinStatus::kOk) return false;
    if (max_results_ > 0 && emitted_ >= max_results_) {
      status_ = JoinStatus::kExhausted;
      return false;
    }
    // Merge-level safe point (DESIGN.md §11): shard engines run with a
    // cleared token and park between their own Next calls, so after
    // Quiesce every engine is serializable.
    if (stop_token_.stop_requested()) {
      status_ = JoinStatus::kSuspended;
      merge_.Quiesce();
      return false;
    }
    if (!merge_.Next(out)) {
      status_ = merge_.status();
      return false;
    }
    ++emitted_;
    return true;
  }

  JoinStatus status() const {
    if (passthrough_ != nullptr) return passthrough_->status();
    return status_;
  }

  void ResumeSuspended() {
    if (passthrough_ != nullptr) {
      passthrough_->ResumeSuspended();
      return;
    }
    if (status_ == JoinStatus::kSuspended) {
      status_ = JoinStatus::kOk;
      merge_.Resume();
    }
  }

  // Merged statistics: seed stats + every shard via JoinStats::MergeFrom,
  // pairs_reported overwritten with what the merge actually emitted (shard
  // counters can run ahead by the bounded lookahead mid-stream; at
  // exhaustion the totals match the serial engine — see file comment for
  // the two excluded counters), and the pool-derived counters re-derived
  // from wrapper-owned baselines.
  const JoinStats& engine_stats() const {
    if (passthrough_ != nullptr) return passthrough_->engine_stats();
    merge_.Quiesce();
    merged_ = seed_stats_;
    for (const auto& slot : merge_.slots()) {
      merged_.MergeFrom(slot.engine->engine_stats());
    }
    merged_.pairs_reported = emitted_;
    merged_.node_io =
        node_io_offset_ + (PoolMisses(pools_) - base_node_misses_);
    merged_.node_accesses =
        node_accesses_offset_ + (PoolAccesses(pools_) - base_node_accesses_);
    merged_.io_retries =
        io_retries_offset_ + (PoolRetries(pools_) - base_io_retries_);
    merged_.checksum_failures =
        checksum_failures_offset_ +
        (PoolChecksumFailures(pools_) - base_checksum_failures_);
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return merged_;
  }

  // engine_stats() in the shape the engine's own stats() returns: JoinStats
  // for the joins, IncNearestStats for the neighbor engines.
  const StatsShape& stats() const {
    if constexpr (std::is_same_v<StatsShape, JoinStats>) {
      return engine_stats();
    } else {
      shaped_ = Engine::ShapeStats(engine_stats());
      return shaped_;
    }
  }

  bool suspended() const { return status() == JoinStatus::kSuspended; }

  // Live queue entries across every shard plus the buffered results in
  // flight — the serving layer's memory-cost proxy (DESIGN.md §14).
  size_t queue_size() const {
    if (passthrough_ != nullptr) return passthrough_->queue_size();
    merge_.Quiesce();
    size_t total = 0;
    for (const auto& slot : merge_.slots()) {
      total += slot.engine->queue_size() + slot.buffer.size();
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return total;
  }

  // Peak in-memory entries; per-shard peaks are concurrent on disjoint
  // queues, so the honest total is their sum.
  size_t max_memory_queue_size() const {
    if (passthrough_ != nullptr) return passthrough_->max_memory_queue_size();
    merge_.Quiesce();
    size_t total = 0;
    for (const auto& slot : merge_.slots()) {
      total += slot.engine->max_memory_queue_size();
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return total;
  }

  // 1 in passthrough mode, else the plan's effective shard count.
  int effective_shards() const {
    return passthrough_ != nullptr ? 1
                                   : static_cast<int>(merge_.shard_count());
  }

  // Merge-level pops (results emitted by the k-way merge). Deliberately NOT
  // a JoinStats field: adding it would change the stats wire format and
  // every golden fixture for a counter only the wrapper can produce.
  uint64_t shard_merge_pops() const {
    return passthrough_ != nullptr ? 0 : merge_.merge_pops();
  }

  // Per-shard counter snapshots (bench reporting: per-shard expansions).
  std::vector<JoinStats> shard_stats() const {
    std::vector<JoinStats> out;
    if (passthrough_ != nullptr) return out;
    merge_.Quiesce();
    out.reserve(merge_.shard_count());
    for (const auto& slot : merge_.slots()) {
      out.push_back(slot.engine->engine_stats());
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return out;
  }

  // ---- snapshot support (DESIGN.md §11) ----

  // Wrapper framing (mode + shard count) around either the passthrough
  // engine's snapshot or the per-shard snapshots plus the merge cursor.
  // Same safe-point contract as the engines'.
  bool SaveState(snapshot::Blob* out) {
    out->PutU32(kMagic);
    out->PutU32(kVersion);
    out->PutU32(static_cast<uint32_t>(Dim));
    out->PutBool(passthrough_ == nullptr);
    out->PutU32(static_cast<uint32_t>(effective_shards()));
    if (passthrough_ != nullptr) return passthrough_->SaveState(out);
    merge_.Quiesce();
    if (status_ == JoinStatus::kIoError ||
        status_ == JoinStatus::kInvalidArgument) {
      return false;
    }
    for (const auto& slot : merge_.slots()) {
      // A dead shard cannot be resumed (its engine refuses SaveState and
      // its stream is incomplete): the merged cursor is unsaveable, exactly
      // like a serial engine after kIoError.
      if (slot.done && slot.terminal == JoinStatus::kIoError) return false;
    }
    out->PutU64(emitted_);
    out->PutU8(static_cast<uint8_t>(status_));
    out->PutU64(node_io_offset_ + (PoolMisses(pools_) - base_node_misses_));
    out->PutU64(node_accesses_offset_ +
                (PoolAccesses(pools_) - base_node_accesses_));
    out->PutU64(io_retries_offset_ +
                (PoolRetries(pools_) - base_io_retries_));
    out->PutU64(checksum_failures_offset_ +
                (PoolChecksumFailures(pools_) - base_checksum_failures_));
    for (auto& slot : merge_.slots()) {
      out->PutBool(slot.done);
      out->PutU8(static_cast<uint8_t>(slot.terminal));
      out->PutBool(slot.has_last);
      out->PutDouble(slot.last_key);
      out->PutU64(slot.buffer.size());
      for (const Result& r : slot.buffer) {
        shard::WriteMergeResult<Dim>(out, r);
      }
      snapshot::Blob engine_blob;
      if (!slot.engine->SaveState(&engine_blob)) return false;
      out->PutU64(engine_blob.size());
      out->PutBytes(engine_blob.data(), engine_blob.size());
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return true;
  }

  // Counterpart of SaveState. The wrapper must have been constructed over
  // the same trees with the same options: the constructor re-runs the shard
  // plan deterministically, so mode and shard count must match the saved
  // ones, and each shard engine verifies its own fingerprint.
  bool RestoreState(snapshot::BlobReader* in) {
    if (in->GetU32() != kMagic) return false;
    if (in->GetU32() != kVersion) return false;
    if (in->GetU32() != static_cast<uint32_t>(Dim)) return false;
    const bool sharded = in->GetBool();
    if (sharded != (passthrough_ == nullptr)) return false;
    if (in->GetU32() != static_cast<uint32_t>(effective_shards())) {
      return false;
    }
    if (!in->ok()) return false;
    if (passthrough_ != nullptr) return passthrough_->RestoreState(in);
    merge_.StopThreads();
    const uint64_t emitted = in->GetU64();
    const uint8_t status = in->GetU8();
    if (status != static_cast<uint8_t>(JoinStatus::kOk) &&
        status != static_cast<uint8_t>(JoinStatus::kExhausted) &&
        status != static_cast<uint8_t>(JoinStatus::kSuspended)) {
      return false;
    }
    const uint64_t node_io = in->GetU64();
    const uint64_t node_accesses = in->GetU64();
    const uint64_t io_retries = in->GetU64();
    const uint64_t checksum_failures = in->GetU64();
    if (!in->ok()) return false;
    for (auto& slot : merge_.slots()) {
      slot.done = in->GetBool();
      const uint8_t terminal = in->GetU8();
      if (terminal > static_cast<uint8_t>(JoinStatus::kInvalidArgument)) {
        return false;
      }
      slot.terminal = static_cast<JoinStatus>(terminal);
      slot.has_last = in->GetBool();
      slot.last_key = in->GetDouble();
      const uint64_t buffered = in->GetCount(8);
      if (!in->ok()) return false;
      slot.buffer.clear();
      for (uint64_t i = 0; i < buffered; ++i) {
        Result r;
        if (!shard::ReadMergeResult<Dim>(in, &r)) return false;
        slot.buffer.push_back(std::move(r));
      }
      const uint64_t blob_size = in->GetCount(1);
      if (!in->ok()) return false;
      std::vector<char> blob(blob_size);
      if (blob_size > 0 && !in->GetBytes(blob.data(), blob_size)) {
        return false;
      }
      snapshot::BlobReader engine_in(blob.data(), blob.size());
      if (!slot.engine->RestoreState(&engine_in)) return false;
    }
    if (!in->ok()) return false;
    emitted_ = emitted;
    status_ = static_cast<JoinStatus>(status);
    merge_.RestoreVerdict(status_ == JoinStatus::kExhausted
                              ? JoinStatus::kExhausted
                              : JoinStatus::kOk,
                          emitted_);
    // Rebase the pool baselines against the current counters, mirroring
    // RestoreCore: stats() keeps reporting totals across the boundary.
    node_io_offset_ = node_io;
    node_accesses_offset_ = node_accesses;
    io_retries_offset_ = io_retries;
    checksum_failures_offset_ = checksum_failures;
    base_node_misses_ = PoolMisses(pools_);
    base_node_accesses_ = PoolAccesses(pools_);
    base_io_retries_ = PoolRetries(pools_);
    base_checksum_failures_ = PoolChecksumFailures(pools_);
    return true;
  }

 private:
  static constexpr uint32_t kMagic = 0x534A5348;  // "SJSH"
  static constexpr uint32_t kVersion = 1;

  // The option rewrite shared by the plan's seed engine (shard < 0) and
  // shard engine k: never re-shard, seed the root only in the seed engine,
  // poll the stop token at the merge instead, and keep per-shard hybrid
  // spill files apart.
  static void ForShard(EngineOptions* options, int shard) {
    options->shards = 1;
    options->defer_seed = shard >= 0;
    options->stop_token = util::StopToken{};
    if (shard >= 0 && options->use_hybrid_queue &&
        !options->hybrid.spill_path.empty()) {
      options->hybrid.spill_path += ".shard" + std::to_string(shard);
    }
  }

  // Every buffer pool the engines read: both trees' for the joins, the
  // tree's alone when the second argument is a query point.
  static std::vector<const storage::BufferPool*> PoolsOf(
      const Index& first, const Second& second) {
    if constexpr (std::is_same_v<Second, Index>) {
      return {&first.pool(), &second.pool()};
    } else {
      return {&first.pool()};
    }
  }

  std::vector<const storage::BufferPool*> pools_;
  uint64_t base_node_misses_;
  uint64_t base_node_accesses_;
  uint64_t base_io_retries_;
  uint64_t base_checksum_failures_;
  // Counter totals accumulated before the last RestoreState (the rebased
  // baselines restart the live deltas at zero).
  uint64_t node_io_offset_ = 0;
  uint64_t node_accesses_offset_ = 0;
  uint64_t io_retries_offset_ = 0;
  uint64_t checksum_failures_offset_ = 0;

  std::unique_ptr<Engine> passthrough_;
  mutable shard::FrontierMerge<Dim, Engine, Result> merge_;
  JoinStats seed_stats_;
  util::StopToken stop_token_;
  uint64_t max_results_ = 0;  // merge-level result cap; 0 = unlimited
  bool auto_resume_ = false;  // NN semantics: kSuspended self-clears in Next
  uint64_t emitted_ = 0;
  JoinStatus status_ = JoinStatus::kOk;
  mutable JoinStats merged_;
  mutable StatsShape shaped_;
};

// The public names of the five sharded policies.
template <int Dim, typename Index = RTree<Dim>>
using ShardedDistanceJoin = Sharded<DistanceJoin<Dim, Index>>;

// The Outside filter dedupes the merged stream in the semi-join wrapper
// exactly as it dedupes a serial stream; Inside filters and d_max bounds
// shard cleanly because the plan scatters by item1 only.
template <int Dim, typename Index = RTree<Dim>>
using ShardedDistanceSemiJoin =
    DistanceSemiJoin<Dim, Index, ShardedDistanceJoin<Dim, Index>>;

template <int Dim, typename Index = RTree<Dim>>
using ShardedWithinJoin = Sharded<IncWithinJoin<Dim, Index>>;

template <int Dim, typename Index = RTree<Dim>>
using ShardedIncNearest = Sharded<IncNearestNeighbor<Dim, Index>>;

template <int Dim, typename Index = RTree<Dim>>
using ShardedIncFarthest = Sharded<IncFarthestNeighbor<Dim, Index>>;

}  // namespace sdj

#endif  // SDJOIN_CORE_SHARD_MERGE_H_
