// The repository benchmark: two named workloads over the Water x Roads
// stand-ins, each checked against an independent oracle.
//
//   perfbench_workloads --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --work-dir <dir>
//
// --trace 0 prints the end-to-end metrics, measured with no observability
// sink attached. --trace 1 interleaves untraced and traced repetitions and
// prints per-layer metrics: counters the library already exposes (JoinStats,
// IoStats, the obs::Metrics sink, serving counters), bench-side spans around
// every call into a layer, and replays of captured inputs (labelled
// replay_/est_). Nothing is traced inside the library itself.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; earlier lines starting with '#' carry provenance and sample
// counts. The exit code is nonzero when any output check failed.
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/within_join.h"
#include "core/distance_join.h"
#include "core/pair_queue.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "core/within_join.h"
#include "data/datasets.h"
#include "geometry/rect_batch.h"
#include "geometry/simd.h"
#include "harness.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "serve/erased_engine.h"
#include "serve/session_manager.h"

// ---------------------------------------------------------- file I/O probe --

// The snapshot and session-table stores write and sync their files through
// storage::PageFile, which reports to no metrics sink. So a traced serving
// pass counts and times the page file's pwrite and fsync calls at the link
// boundary: CMakeLists.txt links perfbench_workloads with
// --wrap=pwrite,--wrap=fsync. The R-trees' pages live in memory, so every
// call seen here is a snapshot or session-table page.
namespace sdj::perfbench {
struct FileIo {
  uint64_t writes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
};
// Counted between StartFileIo and StopFileIo, while one thread serves.
std::atomic<bool> g_file_io_on{false};
FileIo g_file_io;

void StartFileIo() {
  g_file_io = FileIo{};
  g_file_io_on.store(true, std::memory_order_relaxed);
}
FileIo StopFileIo() {
  g_file_io_on.store(false, std::memory_order_relaxed);
  return g_file_io;
}
}  // namespace sdj::perfbench

extern "C" {
ssize_t __real_pwrite(int fd, const void* buf, size_t n, off_t offset);
int __real_fsync(int fd);

ssize_t __wrap_pwrite(int fd, const void* buf, size_t n, off_t offset) {
  using namespace sdj::perfbench;
  if (!g_file_io_on.load(std::memory_order_relaxed)) {
    return __real_pwrite(fd, buf, n, offset);
  }
  const uint64_t t = NowNs();
  const ssize_t written = __real_pwrite(fd, buf, n, offset);
  g_file_io.write_ns += NowNs() - t;
  ++g_file_io.writes;
  return written;
}

int __wrap_fsync(int fd) {
  using namespace sdj::perfbench;
  if (!g_file_io_on.load(std::memory_order_relaxed)) return __real_fsync(fd);
  const uint64_t t = NowNs();
  const int status = __real_fsync(fd);
  g_file_io.sync_ns += NowNs() - t;
  ++g_file_io.syncs;
  return status;
}
}  // extern "C"

namespace sdj::perfbench {
namespace {

// Workload constants (perfbench/README.md gives the reasons).
constexpr uint64_t kJoinPairs = 100000;  // Table 1's last row
constexpr int kShards = 3;  // 3 producers + the merging caller = nproc
constexpr double kWithinEpsilon = 100.0;  // meters
constexpr double kServeScale = 0.1;
constexpr uint64_t kServeJoinCap = 200;
constexpr uint64_t kServeSemiCap = 150;
constexpr uint64_t kServeTurn = 25;
constexpr uint64_t kServeBudget = 512;  // queue entries across sessions
// Passes cut short at the first served pair after each full pass: a full
// pass gives one first-pair sample, too few for a stable median.
constexpr int kServeProbesPerPass = 48;
constexpr int kSetupReps = 3;
// serve_evict's 0.1-scale set-up takes about 0.5 s, so it is repeated more
// often for a steady median.
constexpr int kServeSetupReps = 7;
// table1_even queries cut short at the first pair after each drain: a drain
// gives one first-pair sample, too few for a stable median.
constexpr int kFirstPairProbes = 2;
constexpr uint32_t kQuantizedBufferPages = 4096;

// Environment knobs that silently change a workload (core/env_knobs.h,
// geometry/simd.h, geometry/code_screen.h, bench/bench_common.h).
constexpr const char* kRefusedEnv[] = {"SDJ_SHARDS", "SDJ_THREADS",
                                       "SDJ_KERNEL", "SDJ_SCREEN",
                                       "SDJ_BENCH_SCALE", "SDJ_BENCH_METRICS"};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// ----------------------------------------------------------------- report --

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& json_value) {
    info_.push_back({key, json_value});
  }
  void InfoNum(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Info(key, buf);
  }
  void InfoStr(const std::string& key, const std::string& value) {
    Info(key, "\"" + value + "\"");
  }
  // One checked operation: a drained query or a served session stream.
  // `failure` is empty when its status and output were correct.
  void Attempt(const std::string& what, const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 failure.c_str());
  }
  // Whether a query's peak-RSS reset worked. After a failed reset the query's
  // peak_rss_mb is the process peak, so the run says so.
  void PeakRssReset(bool ok) {
    if (ok) return;
    if (rss_reset_failures_++ == 0) {
      std::fprintf(stderr,
                   "perfbench: /proc/self/clear_refs not writable; "
                   "peak_rss_mb is the process peak, set-up included\n");
    }
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print() {
    InfoNum("peak_rss_reset_failures",
            static_cast<double>(rss_reset_failures_));
    std::printf("# info {");
    for (size_t i = 0; i < info_.size(); ++i) {
      std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", info_[i].first.c_str(),
                  info_[i].second.c_str());
    }
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t rss_reset_failures_ = 0;
};

// ------------------------------------------------------------------ setup --

RTreeOptions PaperTreeOptions() {
  RTreeOptions options;
  options.page_size = 2048;    // fan-out 51, the paper's ~50
  options.buffer_pages = 128;  // the paper's 256K buffer
  options.encoding = NodeEncoding::kRaw;
  return options;
}

RTreeOptions QuantizedTreeOptions() {
  RTreeOptions options;
  options.page_size = 2048;  // fan-out 125 under the quantized layout
  options.buffer_pages = kQuantizedBufferPages;  // holds both trees
  options.encoding = NodeEncoding::kQuantized;
  return options;
}

enum class TreeBuild { kInsertRaw, kBulkQuantized };

struct Inputs {
  std::vector<Point<2>> water;
  std::vector<Point<2>> roads;
  std::unique_ptr<RTree<2>> water_tree;
  std::unique_ptr<RTree<2>> roads_tree;
};

std::unique_ptr<RTree<2>> BuildTree(const std::vector<Point<2>>& points,
                                    TreeBuild build) {
  if (build == TreeBuild::kInsertRaw) {
    auto tree = std::make_unique<RTree<2>>(PaperTreeOptions());
    for (size_t i = 0; i < points.size(); ++i) {
      tree->Insert(Rect<2>::FromPoint(points[i]), i);
    }
    return tree;
  }
  auto tree = std::make_unique<RTree<2>>(QuantizedTreeOptions());
  std::vector<RTree<2>::Entry> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i] = {Rect<2>::FromPoint(points[i]), i};
  }
  tree->BulkLoad(std::move(entries));
  return tree;
}

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> build_s;
};

// Generates the inputs and builds both trees once, adding the times to
// `times`.
Inputs SetUpOnce(uint64_t seed, double scale, TreeBuild build,
                 SetupTimes* times, SpanLog* spans) {
  Inputs inputs;
  const uint32_t setup_span = spans->Begin("setup");
  const uint64_t t0 = NowNs();
  uint32_t span = spans->Begin("data.generate", setup_span);
  inputs.water = ShuffleBlocks(seed, kWaterStream, data::MakeWater(scale));
  inputs.roads = ShuffleBlocks(seed, kRoadsStream, data::MakeRoads(scale));
  spans->End(span);
  const uint64_t t1 = NowNs();
  span = spans->Begin("rtree.build", setup_span);
  inputs.water_tree = BuildTree(inputs.water, build);
  inputs.roads_tree = BuildTree(inputs.roads, build);
  spans->End(span);
  const uint64_t t2 = NowNs();
  spans->End(setup_span);
  times->setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  times->generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  times->build_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  return inputs;
}

// Sets up serve_evict's inputs kServeSetupReps times (set-up time is
// reported as the median); the last build is kept.
Inputs SetUp(uint64_t seed, double scale, TreeBuild build, SetupTimes* times,
             SpanLog* spans) {
  Inputs inputs;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    inputs = Inputs{};
    inputs = SetUpOnce(seed, scale, build, times, spans);
  }
  return inputs;
}

// The input variant of set-up `v` in a run with `seed`. table1_even queries
// each of its kSetupReps set-ups in turn, so one run averages over several
// block orders (and R*-tree shapes); variant 0 of the default seed is the
// stand-ins themselves.
uint64_t VariantSeed(uint64_t seed, int v) { return seed * kSetupReps + v; }

void ColdCaches(const Inputs& in) {
  in.water_tree->pool().Invalidate();
  in.roads_tree->pool().Invalidate();
}

void AttachPools(const Inputs& in, obs::Metrics* sink) {
  in.water_tree->pool().SetMetrics(sink);
  in.roads_tree->pool().SetMetrics(sink);
}

// Every engine option set explicitly: none is left to an environment default.
DistanceJoinOptions JoinOptions(Metric metric, obs::Metrics* sink) {
  DistanceJoinOptions o;
  o.metric = metric;
  o.node_policy = NodeProcessingPolicy::kEven;
  o.tie_break = TieBreakPolicy::kDepthFirst;
  o.min_distance = 0.0;
  o.max_distance = std::numeric_limits<double>::infinity();
  o.max_pairs = 0;
  o.estimate_max_distance = false;
  o.aggressive_estimation = false;
  o.reverse_order = false;
  o.use_hybrid_queue = false;
  o.num_threads = 1;
  o.shards = 1;
  o.metrics = sink;
  o.kernel_isa = simd::Isa::kAuto;
  o.screen_codes = true;
  return o;
}

WithinJoinOptions WithinOptions(double epsilon, obs::Metrics* sink) {
  WithinJoinOptions o;
  o.epsilon = epsilon;
  o.metric = Metric::kEuclidean;
  o.tie_break = TieBreakPolicy::kDepthFirst;
  o.use_hybrid_queue = false;
  o.num_threads = 1;
  o.shards = 1;
  o.metrics = sink;
  o.kernel_isa = simd::Isa::kAuto;
  o.screen_codes = true;
  return o;
}

// ------------------------------------------------------------------ drain --

struct Drain {
  std::vector<PairRec> stream;
  std::vector<double> next_us;  // one sample per Next() that returned a pair
  double first_s = 0.0;         // engine construction -> first pair
  double last_s = 0.0;          // engine construction -> last pair
  JoinStatus status = JoinStatus::kOk;
  JoinStats stats;
  bool rss_reset = false;  // ResetPeakRss worked, so peak_rss_mb is the query's
  double rss_before_mb = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t peak_entries = 0;
  std::vector<PairEntry<2>> live_queue;  // captured for the queue replay

  double pairs_per_s() const {
    return stream.size() > 1 && last_s > first_s
               ? static_cast<double>(stream.size() - 1) / (last_s - first_s)
               : 0.0;
  }
};

// Times one query: engine construction (make()) through `limit` results or
// exhaustion, one latency sample per Next(). `after` reads engine state once
// the clock has stopped.
template <typename Make, typename After>
Drain RunDrain(Make&& make, uint64_t limit, size_t expected, SpanLog* spans,
               After&& after) {
  Drain r;
  r.stream.reserve(expected);
  r.next_us.reserve(expected);
  r.rss_reset = ResetPeakRss();
  r.rss_before_mb = RssMb();
  const uint32_t query = spans->Begin("query");
  const uint64_t t0 = NowNs();
  auto engine = make();
  uint64_t prev = NowNs();
  spans->Add("construct", query, t0, prev);
  JoinResult<2> res;
  while (r.stream.size() < limit) {
    const bool ok = engine->Next(&res);
    const uint64_t t = NowNs();
    spans->Add("Next", query, prev, t);
    if (!ok) break;
    r.next_us.push_back(static_cast<double>(t - prev) * 1e-3);
    r.stream.push_back({static_cast<uint32_t>(res.id1),
                        static_cast<uint32_t>(res.id2), res.distance});
    if (r.stream.size() == 1) r.first_s = static_cast<double>(t - t0) * 1e-9;
    r.last_s = static_cast<double>(t - t0) * 1e-9;
    prev = t;
  }
  spans->End(query);
  r.peak_rss_mb = PeakRssMb();
  r.status = engine->status();
  after(*engine, &r);
  return r;
}

std::string StatusFailure(JoinStatus status, bool want_exhausted) {
  if (status == JoinStatus::kOk && !want_exhausted) return "";
  if (status == JoinStatus::kExhausted && want_exhausted) return "";
  return std::string("engine status ") + std::to_string(static_cast<int>(status));
}

// Repetition schedule: at least `min_reps` (per kind) and until `seconds`
// have passed. A traced run alternates untraced and traced repetitions so
// trace.overhead_pct compares runs made under the same conditions.
class Schedule {
 public:
  Schedule(double seconds, bool trace, int min_reps)
      : seconds_(seconds), trace_(trace), min_reps_(min_reps),
        start_ns_(NowNs()) {}
  // Whether to run another repetition; *traced tells which kind.
  bool Next(bool* traced) {
    const double elapsed = static_cast<double>(NowNs() - start_ns_) * 1e-9;
    const int per_kind = trace_ ? rep_ / 2 : rep_;
    if (per_kind >= min_reps_ && elapsed >= seconds_ &&
        (!trace_ || rep_ % 2 == 0)) {
      return false;
    }
    *traced = trace_ && rep_ % 2 == 1;
    ++rep_;
    return true;
  }

 private:
  const double seconds_;
  const bool trace_;
  const int min_reps_;
  const uint64_t start_ns_;
  int rep_ = 0;
};

// ---------------------------------------------------------------- replays --

// Page ids of every node of `tree`, breadth-first.
std::vector<storage::PageId> AllPages(const RTree<2>& tree) {
  std::vector<storage::PageId> pages = {tree.root()};
  for (size_t i = 0; i < pages.size(); ++i) {
    const RTree<2>::PinnedNode node = tree.Pin(pages[i]);
    if (node.is_leaf()) continue;
    for (uint32_t e = 0; e < node.count(); ++e) pages.push_back(node.ref(e));
  }
  return pages;
}

struct NodeReplay {
  double decode_ns_per_node = 0.0;
  double screen_ns_per_node = 0.0;  // 0 on raw pages (no screening)
  double kernel_ns_per_rect = 0.0;
};

// Replays decode, code screening and the MINDIST kernel over up to 48
// evenly spaced nodes of each tree (levels in proportion to their counts),
// each node screened/measured against a node MBR of the other tree.
NodeReplay ReplayNodes(const Inputs& in, double max_distance, Metric metric,
                       simd::Isa isa) {
  constexpr size_t kSample = 48;
  constexpr int kIters = 200;
  struct Side {
    const RTree<2>* tree;
    std::vector<storage::PageId> pages;
  };
  Side sides[2] = {{in.water_tree.get(), {}}, {in.roads_tree.get(), {}}};
  for (Side& side : sides) {
    const std::vector<storage::PageId> all = AllPages(*side.tree);
    const size_t n = std::min(kSample, all.size());
    for (size_t i = 0; i < n; ++i) side.pages.push_back(all[i * all.size() / n]);
  }
  NodeReplay out;
  uint64_t decode_ns = 0, screen_ns = 0, kernel_ns = 0;
  uint64_t nodes = 0, screened_nodes = 0, rects = 0;
  RectBatch<2> batch;
  std::vector<uint64_t> refs;
  std::vector<double> dist;
  code_screen::ScreenScratch<2> scratch;
  bool quantized = false;
  for (int s = 0; s < 2; ++s) {
    const Side& side = sides[s];
    const Side& other = sides[1 - s];
    for (size_t i = 0; i < side.pages.size(); ++i) {
      const RTree<2>::PinnedNode node = side.tree->Pin(side.pages[i]);
      Rect<2> query;
      {
        const RTree<2>::PinnedNode q =
            other.tree->Pin(other.pages[i % other.pages.size()]);
        query = q.rect(0);
        for (uint32_t e = 1; e < q.count(); ++e) query.ExpandToInclude(q.rect(e));
      }
      uint64_t t = NowNs();
      for (int it = 0; it < kIters; ++it) node.DecodeInto(&batch, &refs);
      decode_ns += NowNs() - t;
      nodes += kIters;
      dist.resize(batch.size());
      t = NowNs();
      for (int it = 0; it < kIters; ++it) {
        MinDistBatch<2>(batch, query, metric, dist.data(), 0, batch.size(),
                        isa);
      }
      kernel_ns += NowNs() - t;
      rects += static_cast<uint64_t>(kIters) * batch.size();
      size_t dropped = 0;
      t = NowNs();
      bool ran = false;
      for (int it = 0; it < kIters; ++it) {
        ran = node.DecodeScreened(query, max_distance, isa, &scratch, &batch,
                                  &refs, &dropped);
      }
      if (ran) {
        screen_ns += NowNs() - t;
        screened_nodes += kIters;
        quantized = true;
      }
    }
  }
  out.decode_ns_per_node = nodes ? static_cast<double>(decode_ns) / nodes : 0;
  out.kernel_ns_per_rect = rects ? static_cast<double>(kernel_ns) / rects : 0;
  out.screen_ns_per_node =
      quantized ? static_cast<double>(screen_ns) / screened_nodes : 0.0;
  return out;
}

struct QueueReplay {
  double push_ns = 0.0;
  double pop_ns = 0.0;
};

// Replays a captured live queue through a fresh MemoryPairQueue: up to
// kReplayEntries entries pushed, then all of them popped.
QueueReplay ReplayQueue(const std::vector<PairEntry<2>>& entries) {
  constexpr size_t kReplayEntries = 1000000;
  QueueReplay out;
  const size_t n = std::min(entries.size(), kReplayEntries);
  if (n == 0) return out;
  MemoryPairQueue<2> queue(PairEntryCompare<2>{TieBreakPolicy::kDepthFirst});
  uint64_t t = NowNs();
  for (size_t i = 0; i < n; ++i) queue.Push(entries[i]);
  out.push_ns = static_cast<double>(NowNs() - t) / n;
  t = NowNs();
  for (size_t i = 0; i < n; ++i) queue.Pop();
  out.pop_ns = static_cast<double>(NowNs() - t) / n;
  return out;
}

// ------------------------------------------------------------ layer report --

// Inputs to the per-layer metrics shared by every workload.
struct LayerInputs {
  SetupTimes setup;
  size_t tree_pages = 0;
  JoinStats stats;                 // engine counters of a traced repetition
  obs::MetricsSummary engine;      // engine + buffer-pool sink
  obs::MetricsSummary serve;       // manager-wide sink (serve_evict)
  obs::MetricsSummary sessions;    // summed per-session sinks (serve_evict)
  double traced_wall_ms = 0.0;     // wall time of that traced repetition
  uint64_t peak_entries = 0;
  double bytes_per_entry = 0.0;
  NodeReplay nodes;            // the workload's own (raw) trees
  NodeReplay quantized_nodes;  // the screen side drain's trees
  JoinStats screen_stats;      // the screen side drain's engine counters
  double screen_drain_s = 0.0;
  QueueReplay queue;
  int shards = 1;
  uint64_t merge_pops = 0;
  double imbalance = 0.0;
  double sharded_drain_s = 0.0;
  uint64_t checkpoints = 0;
  double snapshot_file_bytes = 0.0;
  double snapshot_replay_bytes = 0.0;
  double snapshot_replay_ns_per_entry = 0.0;
  FileIo file_io;  // page-file writes and syncs of a traced serving pass
  uint64_t slices = 0, evictions = 0, rehydrations = 0;
  double untraced_s = 0.0;  // median untraced repetition time
  double traced_s = 0.0;    // median traced repetition time
  size_t spans = 0;
};

double Ms(const obs::HistogramSummary& h) {
  return static_cast<double>(h.total_ns) * 1e-6;
}
double MeanUs(const obs::HistogramSummary& h) {
  return h.count ? static_cast<double>(h.total_ns) * 1e-3 / h.count : 0.0;
}
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void ReportLayers(const LayerInputs& l, Report* report) {
  using obs::Op;
  const JoinStats& s = l.stats;
  report->Metric("data.generate_s", Median(l.setup.generate_s), "s");
  report->Metric("rtree.build_s", Median(l.setup.build_s), "s");
  report->Metric("rtree.pages", static_cast<double>(l.tree_pages), "count");

  const obs::HistogramSummary& pop = l.engine.of(Op::kPop);
  const double pop_rate = Ratio(pop.count, s.queue_pops);
  const double pop_ms = Ratio(Ms(pop), pop_rate);
  report->Metric("pair_queue.pushes", s.queue_pushes, "count");
  report->Metric("pair_queue.pops", s.queue_pops, "count");
  report->Metric("pair_queue.pop_push_ratio",
                 Ratio(s.queue_pops, s.queue_pushes), "ratio");
  report->Metric("pair_queue.peak_entries", l.peak_entries, "count");
  report->Metric("pair_queue.pop_sample_rate", pop_rate, "ratio");
  report->Metric("pair_queue.pop_ms", pop_ms, "ms");
  report->Metric("pair_queue.replay_push_ns", l.queue.push_ns, "ns");
  report->Metric("pair_queue.replay_pop_ns", l.queue.pop_ns, "ns");
  report->Metric("pair_queue.bytes_per_entry", l.bytes_per_entry, "B");

  // The R-tree pools only read (engine sink); writes and syncs are the
  // snapshot and session-table files' (FileIo probe).
  const obs::HistogramSummary& read = l.engine.of(Op::kPageRead);
  report->Metric("storage.node_accesses", s.node_accesses, "count");
  report->Metric("storage.node_io", s.node_io, "count");
  report->Metric("storage.hit_ratio",
                 s.node_accesses ? 1.0 - Ratio(s.node_io, s.node_accesses)
                                 : 0.0,
                 "ratio");
  report->Metric("storage.read_ms", Ms(read), "ms");
  report->Metric("storage.read_mean_us", MeanUs(read), "us");
  report->Metric("storage.writes", l.file_io.writes, "count");
  report->Metric("storage.write_ms", l.file_io.write_ns * 1e-6, "ms");
  report->Metric("storage.syncs", l.file_io.syncs, "count");
  report->Metric("storage.sync_ms", l.file_io.sync_ns * 1e-6, "ms");

  const JoinStats& screen = l.screen_stats;
  report->Metric("screen.candidates", screen.screened_candidates, "count");
  report->Metric("screen.survivors", screen.screen_survivors, "count");
  report->Metric("screen.survivor_ratio",
                 Ratio(screen.screen_survivors, screen.screened_candidates),
                 "ratio");
  report->Metric("screen.within_drain_s", l.screen_drain_s, "s");
  report->Metric("decode.replay_ns_per_node", l.nodes.decode_ns_per_node,
                 "ns");
  report->Metric("decode.quantized_replay_ns_per_node",
                 l.quantized_nodes.decode_ns_per_node, "ns");
  report->Metric("screen.replay_ns_per_node",
                 l.quantized_nodes.screen_ns_per_node, "ns");

  const double kernel_est_ms =
      s.total_distance_calcs * l.nodes.kernel_ns_per_rect * 1e-6;
  report->Metric("kernels.total_calcs", s.total_distance_calcs, "count");
  report->Metric("kernels.object_calcs", s.object_distance_calcs, "count");
  report->Metric("kernels.batch_calls", s.batch_kernel_invocations, "count");
  report->Metric("kernels.replay_ns_per_rect", l.nodes.kernel_ns_per_rect,
                 "ns");
  report->Metric("kernels.est_ms", kernel_est_ms, "ms");

  const double expand_ms = Ms(l.engine.of(Op::kExpansion));
  const double decode_est_ms =
      s.node_accesses * l.nodes.decode_ns_per_node * 1e-6;
  const double push_est_ms = s.queue_pushes * l.queue.push_ns * 1e-6;
  report->Metric("best_first.expansions", s.nodes_expanded, "count");
  report->Metric("best_first.expand_ms", expand_ms, "ms");
  report->Metric("best_first.pruned",
                 s.pruned_by_range + s.pruned_by_estimate + s.pruned_by_bound +
                     s.pruned_by_filter,
                 "count");
  report->Metric("best_first.classify_est_ms",
                 expand_ms - Ms(read) - decode_est_ms - kernel_est_ms -
                     push_est_ms,
                 "ms");
  report->Metric("best_first.attributed_share",
                 Ratio(pop_ms + expand_ms, l.traced_wall_ms), "ratio");

  report->Metric("shard_merge.shards", l.shards, "count");
  report->Metric("shard_merge.merge_pops", l.merge_pops, "count");
  report->Metric("shard_merge.imbalance", l.imbalance, "ratio");
  report->Metric("shard_merge.drain_s", l.sharded_drain_s, "s");

  report->Metric("snapshot.checkpoints", l.checkpoints, "count");
  report->Metric("snapshot.checkpoint_ms", Ms(l.sessions.of(Op::kCheckpoint)),
                 "ms");
  report->Metric("snapshot.restore_ms", Ms(l.sessions.of(Op::kRestore)), "ms");
  report->Metric("snapshot.commit_ms",
                 Ms(l.sessions.of(Op::kSnapshotCommit)), "ms");
  report->Metric("snapshot.file_bytes", l.snapshot_file_bytes, "B");
  report->Metric("snapshot.replay_bytes_per_checkpoint",
                 l.snapshot_replay_bytes, "B");
  report->Metric("snapshot.replay_ns_per_entry",
                 l.snapshot_replay_ns_per_entry, "ns");

  report->Metric("serve.slices", l.slices, "count");
  report->Metric("serve.evictions", l.evictions, "count");
  report->Metric("serve.rehydrations", l.rehydrations, "count");
  report->Metric("serve.evict_mean_ms",
                 MeanUs(l.serve.of(Op::kSessionEvict)) * 1e-3, "ms");
  report->Metric("serve.rehydrate_mean_ms",
                 MeanUs(l.serve.of(Op::kSessionRehydrate)) * 1e-3, "ms");

  report->Metric("trace.overhead_pct",
                 (Ratio(l.traced_s, l.untraced_s) - 1.0) * 100.0, "%");
  report->Metric("trace.spans", static_cast<double>(l.spans), "count");
}

// End-to-end metrics from the untraced repetitions.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> first_ms;
  std::vector<double> drain_s;
  std::vector<double> pairs_per_s;
  std::vector<double> peak_rss_mb;
  // Next() latency summaries from raw samples: one per table1_even drain,
  // one over the pooled passes of serve_evict.
  std::vector<LatencySummary> next;
};

void ReportEndToEnd(const EndToEnd& e, Report* report) {
  std::vector<double> p50, p99, tail;
  size_t samples = std::numeric_limits<size_t>::max();
  for (const LatencySummary& s : e.next) {
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    tail.push_back(s.tail);
    samples = std::min(samples, s.count);
  }
  if (e.next.empty()) samples = 0;
  report->Metric("setup_s", Median(e.setup_s), "s");
  report->Metric("first_pair_ms", Median(e.first_ms), "ms");
  report->Metric("drain_s", Median(e.drain_s), "s");
  report->Metric("pairs_per_s", Median(e.pairs_per_s), "1/s");
  report->Metric("next_p50_us", Median(p50), "us");
  report->Metric("next_p99_us", Median(p99), "us");
  report->Metric("peak_rss_mb", Median(e.peak_rss_mb), "MB");
  report->Metric("ok_frac",
                 1.0 - Ratio(report->failed(), report->attempted()), "ratio");
  report->InfoNum("repetitions", static_cast<double>(e.drain_s.size()));
  report->InfoNum("first_pair_samples", static_cast<double>(e.first_ms.size()));
  report->InfoNum("next_summaries", static_cast<double>(e.next.size()));
  report->InfoNum("next_samples_per_summary", static_cast<double>(samples));
  report->InfoNum("next_tail_pct", TailPercentile(samples));
  report->InfoNum("next_tail_us", Median(tail));
  report->InfoNum("next_p99_samples_beyond",
                  static_cast<double>(SamplesBeyond(samples, 99.0)));
}

// ------------------------------------------------------------ table1_even --

// The shard-merge layer, measured in the traced run: the same drain through
// ShardedDistanceJoin with kShards producer threads, checked like the
// serial one.
void ShardedSideDrain(const Inputs& in, const DistanceJoinOptions& options,
                      const std::vector<PairRec>& reference,
                      LayerInputs* layers, Report* report) {
  ColdCaches(in);
  DistanceJoinOptions run = options;
  run.shards = kShards;
  SpanLog off;
  std::vector<uint64_t> expansions;
  const Drain d = RunDrain(
      [&] {
        return std::make_unique<ShardedDistanceJoin<2>>(*in.water_tree,
                                                        *in.roads_tree, run);
      },
      kJoinPairs, kJoinPairs, &off,
      [&](ShardedDistanceJoin<2>& join, Drain*) {
        layers->shards = join.effective_shards();
        layers->merge_pops = join.shard_merge_pops();
        for (const JoinStats& shard : join.shard_stats()) {
          expansions.push_back(shard.nodes_expanded);
        }
      });
  std::string failure = StatusFailure(d.status, /*want_exhausted=*/false);
  if (failure.empty()) failure = CheckJoinStream(d.stream, kJoinPairs, reference);
  report->Attempt("sharded drain", failure);
  double sum = 0.0, max = 0.0;
  for (const uint64_t x : expansions) {
    sum += static_cast<double>(x);
    max = std::max(max, static_cast<double>(x));
  }
  layers->imbalance =
      expansions.empty() ? 0.0 : Ratio(max, sum / expansions.size());
  layers->sharded_drain_s = d.last_s;
}

// The code-screen layer, measured in the traced run: the epsilon-join at
// kWithinEpsilon on STR bulk-loaded quantized trees held in a warm pool,
// screening on, drained to exhaustion and checked against
// baseline::WithinJoin. table1_even's raw pages never run the screen.
void ScreenSideDrain(uint64_t seed, LayerInputs* layers, Report* report) {
  SetupTimes times;  // not one of the workload's set-ups
  SpanLog off;
  const Inputs in =
      SetUpOnce(seed, 1.0, TreeBuild::kBulkQuantized, &times, &off);
  AllPages(*in.water_tree);  // pin every node once so the pools hold both
  AllPages(*in.roads_tree);
  std::vector<PairRec> reference;
  baseline::WithinJoin<2>(
      *in.water_tree, *in.roads_tree, kWithinEpsilon, Metric::kEuclidean,
      [&](ObjectId a, ObjectId b, const Rect<2>&, const Rect<2>&, double d) {
        reference.push_back(
            {static_cast<uint32_t>(a), static_cast<uint32_t>(b), d});
      });
  const Drain d = RunDrain(
      [&] {
        return std::make_unique<IncWithinJoin<2>>(
            *in.water_tree, *in.roads_tree,
            WithinOptions(kWithinEpsilon, nullptr));
      },
      std::numeric_limits<uint64_t>::max(), reference.size(), &off,
      [&](IncWithinJoin<2>& join, Drain*) {
        layers->screen_stats = join.stats();
      });
  std::string failure = StatusFailure(d.status, /*want_exhausted=*/true);
  if (failure.empty()) failure = CheckSameSet(d.stream, reference);
  report->Attempt("quantized within drain", failure);
  layers->screen_drain_s = d.last_s;
  layers->quantized_nodes = ReplayNodes(in, kWithinEpsilon,
                                        Metric::kEuclidean, simd::Isa::kAuto);
}

// Paper Table 1: Even/DepthFirst DistanceJoin drained to kJoinPairs from a
// cold 128-page buffer. For each of the kSetupReps set-ups (input variants,
// see VariantSeed) it builds the oracle's reference, runs one untimed warm-up
// query, then repeats queries for the set-up's share of the run; each
// untraced drain is followed by kFirstPairProbes queries cut short at the
// first pair. Every query is checked outside the clock.
void RunTable1Workload(const Args& args, Report* report) {
  const DistanceJoinOptions options = JoinOptions(Metric::kEuclidean, nullptr);
  SpanLog spans;
  spans.set_enabled(args.trace);
  LayerInputs layers;
  EndToEnd e2e;
  std::vector<double> untraced_s, traced_s;
  SpanLog off;
  Inputs in;
  std::vector<PairRec> reference;
  // One query drained to `limit` pairs and checked; `sink` (may be null)
  // observes the engine and the pools.
  const auto query = [&](obs::Metrics* sink, SpanLog* query_spans,
                         uint64_t limit) {
    ColdCaches(in);
    AttachPools(in, sink);
    DistanceJoinOptions run = options;
    run.metrics = sink;
    Drain d = RunDrain(
        [&] {
          return std::make_unique<DistanceJoin<2>>(*in.water_tree,
                                                   *in.roads_tree, run);
        },
        limit, limit, query_spans, [sink](DistanceJoin<2>& join, Drain* r) {
          r->stats = join.stats();
          r->peak_entries = r->stats.max_queue_size;
          if (sink) join.CollectPlanEntries(&r->live_queue);
        });
    AttachPools(in, nullptr);
    report->PeakRssReset(d.rss_reset);
    std::string failure = StatusFailure(d.status, /*want_exhausted=*/false);
    if (failure.empty()) failure = CheckJoinStream(d.stream, limit, reference);
    report->Attempt(limit == kJoinPairs ? "drain" : "first-pair probe",
                    failure);
    return d;
  };

  // The span log keeps every set-up and the last traced repetition.
  size_t setup_spans = 0;
  for (int v = 0; v < kSetupReps; ++v) {
    in = Inputs{};
    reference.clear();
    spans.Truncate(setup_spans);
    in = SetUpOnce(VariantSeed(args.seed, v), 1.0, TreeBuild::kInsertRaw,
                   &layers.setup, &spans);
    setup_spans = spans.size();
    reference = KClosestReference(in.water, in.roads, kJoinPairs);

    if (v == 0) TrimHeap();
    {
      // The warm-up: the first query after a set-up faults in the heap the
      // later ones reuse, so it is checked but not timed.
      const Drain d = query(nullptr, &off, kJoinPairs);
      if (v == 0) {  // the query that started from a trimmed heap
        layers.bytes_per_entry =
            (d.peak_rss_mb - d.rss_before_mb) * 1048576.0 / d.peak_entries;
      }
    }
    Schedule schedule(args.seconds / kSetupReps, args.trace, 1);
    bool traced = false;
    while (schedule.Next(&traced)) {
      obs::Metrics sink;
      spans.Truncate(setup_spans);
      Drain d = query(traced ? &sink : nullptr, traced ? &spans : &off,
                      kJoinPairs);
      if (traced) {
        traced_s.push_back(d.last_s);
        layers.stats = d.stats;
        layers.engine = sink.Summary();
        layers.traced_wall_ms = d.last_s * 1e3;
        layers.peak_entries = d.peak_entries;
        std::vector<PairEntry<2>> live = std::move(d.live_queue);
        d = Drain{};
        layers.queue = ReplayQueue(live);
        continue;
      }
      untraced_s.push_back(d.last_s);
      e2e.first_ms.push_back(d.first_s * 1e3);
      e2e.drain_s.push_back(d.last_s);
      e2e.pairs_per_s.push_back(d.pairs_per_s());
      e2e.peak_rss_mb.push_back(d.peak_rss_mb);
      e2e.next.push_back(Summarize(std::move(d.next_us)));
      for (int i = 0; i < kFirstPairProbes; ++i) {
        e2e.first_ms.push_back(query(nullptr, &off, 1).first_s * 1e3);
      }
    }
  }
  if (args.trace) {
    layers.tree_pages =
        in.water_tree->num_nodes() + in.roads_tree->num_nodes();
    ShardedSideDrain(in, options, reference, &layers, report);
    layers.nodes = ReplayNodes(in, std::numeric_limits<double>::infinity(),
                               Metric::kEuclidean, simd::Isa::kAuto);
    ScreenSideDrain(VariantSeed(args.seed, 0), &layers, report);
    layers.untraced_s = Median(untraced_s);
    layers.traced_s = Median(traced_s);
    layers.spans = spans.size();
    ReportLayers(layers, report);
    spans.WriteJson(args.work_dir + "/spans-" + args.workload + ".json");
  } else {
    e2e.setup_s = layers.setup.setup_s;
    ReportEndToEnd(e2e, report);
  }
  report->InfoNum("reference_pairs", static_cast<double>(reference.size()));
}

// ------------------------------------------------------------- serve_evict --

using Manager = serve::SessionManager<2>;

struct MixSession {
  std::string tag;
  uint64_t cap;
  Manager::EngineFactory factory;
};

struct Mix {
  std::vector<std::string> tags;              // per session, admission order
  std::vector<std::vector<PairRec>> streams;
  std::vector<double> next_us;
  double first_s = 0.0;
  double drain_s = 0.0;
  bool rss_reset = false;
  double peak_rss_mb = 0.0;
  std::string failure;
  serve::ServeStats stats;
  uint64_t slices = 0;
  uint64_t checkpoints = 0;
  double snapshot_file_bytes = 0.0;  // mean stat'ed size per session file
  obs::MetricsSummary sessions;
  JoinStats engines;  // the sessions' engine counters, merged
};

// Sessions: join (Euclidean), join (Manhattan), semi-join, within at the
// join cap's last distance. `engine_sink` (may be null) is attached to
// every engine.
std::vector<MixSession> ServeSessions(const Inputs& in, double epsilon,
                                      obs::Metrics* engine_sink) {
  const RTree<2>* water = in.water_tree.get();
  const RTree<2>* roads = in.roads_tree.get();
  const auto join = [=](Metric metric) {
    return [=](util::StopToken token) -> std::unique_ptr<serve::ErasedEngine<2>> {
      DistanceJoinOptions o = JoinOptions(metric, engine_sink);
      o.stop_token = std::move(token);
      return serve::Erase<2>(std::make_unique<DistanceJoin<2>>(*water, *roads, o));
    };
  };
  Manager::EngineFactory semi =
      [=](util::StopToken token) -> std::unique_ptr<serve::ErasedEngine<2>> {
    SemiJoinOptions o;
    o.join = JoinOptions(Metric::kEuclidean, engine_sink);
    o.join.stop_token = std::move(token);
    o.filter = SemiJoinFilter::kInside2;
    o.bound = SemiJoinBound::kNone;
    return serve::Erase<2>(
        std::make_unique<DistanceSemiJoin<2>>(*water, *roads, o));
  };
  Manager::EngineFactory within =
      [=](util::StopToken token) -> std::unique_ptr<serve::ErasedEngine<2>> {
    WithinJoinOptions o = WithinOptions(epsilon, engine_sink);
    o.stop_token = std::move(token);
    return serve::Erase<2>(
        std::make_unique<IncWithinJoin<2>>(*water, *roads, o));
  };
  return {{"join-euclid", kServeJoinCap, join(Metric::kEuclidean)},
          {"join-manhattan", kServeJoinCap, join(Metric::kManhattan)},
          {"semi", kServeSemiCap, semi},
          {"within", kServeJoinCap, within}};
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

// One closed-loop pass: admit the first session and serve its first pair,
// admit the other three, then serve all four round-robin kServeTurn results
// per turn until every session reaches its cap (or, with `first_pair_only`,
// stop at the first served pair).
Mix RunMix(const Inputs& in, double epsilon, uint64_t budget,
           const std::string& state_dir, obs::Metrics* serve_sink,
           obs::Metrics* engine_sink, SpanLog* spans,
           bool first_pair_only = false) {
  ColdCaches(in);
  ResetDir(state_dir);
  Mix mix;
  serve::ServeOptions options;
  options.state_dir = state_dir;
  options.max_sessions = 64;
  options.memory_budget_entries = budget;
  options.slice = std::chrono::microseconds(0);
  options.checkpoint_every = 0;
  options.snapshot_slots = 2;
  options.page_size = 4096;
  options.metrics = serve_sink;
  const std::vector<MixSession> sessions = ServeSessions(in, epsilon, engine_sink);
  for (const MixSession& session : sessions) mix.tags.push_back(session.tag);
  mix.streams.resize(sessions.size());
  mix.next_us.reserve(1024);
  mix.rss_reset = ResetPeakRss();
  struct Client {
    Manager::SessionId id = 0;
    bool done = false;
  };
  std::vector<Client> clients(sessions.size());
  const uint32_t span = spans->Begin("mix");
  const uint64_t t0 = NowNs();
  {
    Manager manager(options);
    uint64_t last = t0;
    const auto stop = [&] { return first_pair_only && mix.first_s > 0.0; };
    // One Next() for session i, its result added to the session's stream;
    // false when the call failed.
    const auto serve_one = [&](size_t i) {
      Client& c = clients[i];
      JoinResult<2> res;
      const uint64_t before = NowNs();
      const serve::ServeStatus status = manager.Next(c.id, &res);
      const uint64_t after = NowNs();
      spans->Add("Next", span, before, after);
      mix.next_us.push_back(static_cast<double>(after - before) * 1e-3);
      if (status != serve::ServeStatus::kOk) {
        mix.failure =
            sessions[i].tag + " returned " + serve::ServeStatusName(status);
        c.done = true;
        return false;
      }
      if (mix.first_s == 0.0) {
        mix.first_s = static_cast<double>(after - t0) * 1e-9;
      }
      last = after;
      std::vector<PairRec>& stream = mix.streams[i];
      stream.push_back({static_cast<uint32_t>(res.id1),
                        static_cast<uint32_t>(res.id2), res.distance});
      if (stream.size() >= sessions[i].cap) {
        c.done = true;
        if (spans->enabled()) {
          struct stat st;
          const std::string path =
              state_dir + "/session_" + std::to_string(c.id) + ".snap";
          if (::stat(path.c_str(), &st) == 0) {
            mix.snapshot_file_bytes +=
                static_cast<double>(st.st_size) / sessions.size();
          }
        }
        manager.Close(c.id);
      }
      return true;
    };
    for (size_t i = 0; i < sessions.size() && !stop(); ++i) {
      const uint32_t admit = spans->Begin("Admit", span);
      const Manager::AdmitResult r =
          manager.Admit(sessions[i].tag, sessions[i].factory);
      spans->End(admit);
      if (r.status != serve::ServeStatus::kOk) {
        mix.failure = "admission of " + sessions[i].tag + " refused";
        clients[i].done = true;
      }
      clients[i].id = r.id;
      // The first session's first pair is served before the others arrive:
      // first_pair_ms is one Admit and one Next, while the evictions that
      // the later admissions force show in next_p99_us and drain_s.
      if (i == 0 && !clients[0].done) serve_one(0);
    }
    bool active = true;
    while (active && !stop()) {
      active = false;
      for (size_t i = 0; i < sessions.size() && !stop(); ++i) {
        for (uint64_t n = 0; n < kServeTurn && !clients[i].done && !stop();
             ++n) {
          active = true;
          if (!serve_one(i)) break;
        }
      }
    }
    mix.drain_s = static_cast<double>(last - t0) * 1e-9;
    spans->End(span);
    mix.peak_rss_mb = PeakRssMb();
    mix.stats = manager.stats();
    obs::Metrics sessions_sum;
    for (const Client& c : clients) {
      const serve::SessionCounters counters = manager.counters(c.id);
      mix.slices += counters.slices;
      mix.checkpoints += counters.cursor.checkpoints_written;
      mix.engines.MergeFrom(manager.session_stats(c.id));
      if (const obs::Metrics* m = manager.session_metrics(c.id)) {
        sessions_sum.MergeFrom(*m);
      }
    }
    mix.sessions = sessions_sum.Summary();
  }
  ResetDir(state_dir);
  return mix;
}

std::string CompareStreams(const Mix& mix, const Mix& reference) {
  if (!mix.failure.empty()) return mix.failure;
  for (size_t i = 0; i < reference.streams.size(); ++i) {
    if (mix.streams[i] != reference.streams[i]) {
      return mix.tags[i] + " stream differs from the unpressured run";
    }
  }
  return "";
}

void RunServeWorkload(const Args& args, Report* report) {
  SpanLog spans;
  spans.set_enabled(args.trace);
  LayerInputs layers;
  Inputs in = SetUp(args.seed, kServeScale, TreeBuild::kInsertRaw,
                    &layers.setup, &spans);
  layers.tree_pages = in.water_tree->num_nodes() + in.roads_tree->num_nodes();
  const size_t setup_spans = spans.size();
  const std::string state_dir = args.work_dir + "/serve-state";

  // Within epsilon: the distance of the join cap's last pair.
  double epsilon = 0.0;
  {
    DistanceJoin<2> join(*in.water_tree, *in.roads_tree,
                         JoinOptions(Metric::kEuclidean, nullptr));
    JoinResult<2> res;
    for (uint64_t i = 0; i < kServeJoinCap && join.Next(&res); ++i) {
      epsilon = res.distance;
    }
  }
  SpanLog off;
  // The oracle: the same mix with no memory pressure (no evictions).
  const Mix reference = RunMix(in, epsilon, std::numeric_limits<uint64_t>::max(),
                               state_dir, nullptr, nullptr, &off);
  report->Attempt("unpressured reference mix", reference.failure);

  EndToEnd e2e;
  e2e.setup_s = layers.setup.setup_s;
  std::vector<double> untraced_s, traced_s;
  std::vector<double> serve_next_us;  // raw samples pooled over the passes
  // At least two passes: 1,500 Next() samples, so p99 has 15 beyond it.
  Schedule schedule(args.seconds, args.trace, 2);
  bool traced = false;
  TrimHeap();
  while (schedule.Next(&traced)) {
    obs::Metrics serve_sink, engine_sink;
    if (traced) AttachPools(in, &engine_sink);
    spans.Truncate(setup_spans);  // keep the last traced repetition's spans
    if (traced) StartFileIo();
    const Mix mix = RunMix(in, epsilon, kServeBudget, state_dir,
                           traced ? &serve_sink : nullptr,
                           traced ? &engine_sink : nullptr,
                           traced ? &spans : &off);
    const FileIo file_io = traced ? StopFileIo() : FileIo{};
    AttachPools(in, nullptr);
    report->PeakRssReset(mix.rss_reset);
    const std::string failure = CompareStreams(mix, reference);
    report->Attempt("pressured mix", failure);
    if (traced) {
      traced_s.push_back(mix.drain_s);
      layers.stats = mix.engines;
      layers.peak_entries = mix.engines.max_queue_size;
      layers.engine = engine_sink.Summary();
      layers.serve = serve_sink.Summary();
      layers.sessions = mix.sessions;
      layers.traced_wall_ms = mix.drain_s * 1e3;
      layers.slices = mix.slices;
      layers.evictions = mix.stats.evictions;
      layers.rehydrations = mix.stats.rehydrations;
      layers.checkpoints = mix.checkpoints;
      layers.snapshot_file_bytes = mix.snapshot_file_bytes;
      layers.file_io = file_io;
      continue;
    }
    untraced_s.push_back(mix.drain_s);
    size_t pairs = 0;
    for (const auto& s : mix.streams) pairs += s.size();
    e2e.first_ms.push_back(mix.first_s * 1e3);
    e2e.drain_s.push_back(mix.drain_s);
    e2e.pairs_per_s.push_back(Ratio(pairs, mix.drain_s));
    e2e.peak_rss_mb.push_back(mix.peak_rss_mb);
    serve_next_us.insert(serve_next_us.end(), mix.next_us.begin(),
                         mix.next_us.end());
    for (int i = 0; i < kServeProbesPerPass; ++i) {
      const Mix probe = RunMix(in, epsilon, kServeBudget, state_dir, nullptr,
                               nullptr, &off, /*first_pair_only=*/true);
      std::string failure = probe.failure;
      if (failure.empty() && probe.streams[0] != std::vector<PairRec>{
                                 reference.streams[0].front()}) {
        failure = "first served pair differs from the unpressured run";
      }
      report->Attempt("first-pair probe", failure);
      e2e.first_ms.push_back(probe.first_s * 1e3);
    }
  }
  e2e.next.push_back(Summarize(std::move(serve_next_us)));
  if (args.trace) {
    // Queue and SaveState replays on the Euclidean join session's engine,
    // rebuilt outside the manager and drained to its cap.
    {
      DistanceJoin<2> join(*in.water_tree, *in.roads_tree,
                           JoinOptions(Metric::kEuclidean, nullptr));
      JoinResult<2> res;
      for (uint64_t i = 0; i < kServeJoinCap && join.Next(&res); ++i) {
      }
      std::vector<PairEntry<2>> live;
      join.CollectPlanEntries(&live);
      layers.queue = ReplayQueue(live);
      constexpr int kSaves = 20;
      size_t bytes = 0;
      const uint64_t t = NowNs();
      for (int i = 0; i < kSaves; ++i) {
        snapshot::Blob blob;
        join.SaveState(&blob);
        bytes = blob.size();
      }
      const double save_ns = static_cast<double>(NowNs() - t) / kSaves;
      layers.snapshot_replay_bytes = static_cast<double>(bytes);
      layers.snapshot_replay_ns_per_entry = Ratio(save_ns, join.queue_size());
    }
    layers.nodes = ReplayNodes(in, std::numeric_limits<double>::infinity(),
                               Metric::kEuclidean, simd::Isa::kAuto);
    layers.untraced_s = Median(untraced_s);
    layers.traced_s = Median(traced_s);
    layers.spans = spans.size();
    ReportLayers(layers, report);
    spans.WriteJson(args.work_dir + "/spans-" + args.workload + ".json");
  } else {
    ReportEndToEnd(e2e, report);
  }
  report->InfoNum("within_epsilon_m", epsilon);
}

// ------------------------------------------------------------------- main --

std::string FilesystemName(const std::string& dir) {
  struct statfs fs;
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <table1_even|serve_evict> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "workload's configuration\n",
                   name);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  RetainFreedHeap();

  Report report;
  report.InfoStr("workload", args.workload);
  report.InfoNum("seed", static_cast<double>(args.seed));
  report.InfoNum("trace", args.trace ? 1 : 0);
  report.InfoStr("kernel_isa_detected", simd::IsaName(simd::DetectIsa()));
  report.InfoStr("kernel_isa_used",
                 simd::IsaName(simd::Resolve(simd::Isa::kAuto)));
  report.InfoNum("hardware_threads", std::thread::hardware_concurrency());
  report.InfoStr("work_dir_fs", FilesystemName(args.work_dir));
  if (args.workload == "table1_even") {
    RunTable1Workload(args, &report);
  } else if (args.workload == "serve_evict") {
    RunServeWorkload(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace sdj::perfbench

int main(int argc, char** argv) { return sdj::perfbench::Main(argc, argv); }
