// Helpers of the repository benchmark (perfbench/): seeded input order,
// exact latency statistics, output oracles, resident-memory probes, heap
// retention and an in-memory span log. Header-only so perfbench_selftest can
// test each helper without the workloads.
#ifndef SDJOIN_PERFBENCH_HARNESS_H_
#define SDJOIN_PERFBENCH_HARNESS_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "util/rng.h"

namespace sdj::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- inputs --

// The inputs are data::MakeWater / data::MakeRoads, so seed 0 reproduces the
// library's stand-ins point for point and numbers line up with
// EXPERIMENTS.md. Any other seed keeps the points and reorders them the way
// a loader reading a file's pages in another order would: consecutive blocks
// of kShuffleBlock points are permuted by a seeded Fisher-Yates pass. Object
// ids, the R*-tree insertion order (hence every insertion-built tree's shape)
// and the ties of the STR sort change; the geometry, and the local order that
// keeps R* insertion cache-friendly, stay. Moving points instead would flip
// the quantized epsilon-join between two first-pair regimes (a pair whose
// decoded boxes touch is reported at once).
inline constexpr uint64_t kDefaultSeed = 0;
inline constexpr size_t kShuffleBlock = 256;
// Per-dataset streams of the block permutation.
inline constexpr uint64_t kWaterStream = 0x57415445;
inline constexpr uint64_t kRoadsStream = 0x524f4144;

inline std::vector<Point<2>> ShuffleBlocks(uint64_t seed, uint64_t stream,
                                           std::vector<Point<2>> points) {
  if (seed == kDefaultSeed) return points;
  Rng rng(seed * 0x9E3779B97F4A7C15ull ^ stream);
  const size_t blocks = (points.size() + kShuffleBlock - 1) / kShuffleBlock;
  std::vector<size_t> order(blocks);
  for (size_t i = 0; i < blocks; ++i) order[i] = i;
  for (size_t i = blocks; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<Point<2>> out;
  out.reserve(points.size());
  for (const size_t block : order) {
    const size_t begin = block * kShuffleBlock;
    const size_t end = std::min(points.size(), begin + kShuffleBlock);
    out.insert(out.end(), points.begin() + begin, points.begin() + end);
  }
  return out;
}

// ------------------------------------------------------------ statistics --

// Nearest-rank percentile (p in (0, 100]) of ascending `sorted`: the value
// at 1-based rank ceil(p/100 * n). Exact on the raw samples, unlike the
// power-of-two buckets of obs::HistogramSummary. 0 for no samples.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still has
// at least ten samples beyond it; 0 when even the median has fewer.
inline double TailPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;  // TailPercentile(count)
  double tail = 0.0;      // value at tail_pct
};

inline LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = PercentileSorted(samples, 50.0);
  s.p99 = PercentileSorted(samples, 99.0);
  s.tail_pct = TailPercentile(s.count);
  s.tail = s.tail_pct > 0.0 ? PercentileSorted(samples, s.tail_pct) : 0.0;
  return s;
}

// Median of per-repetition values (mean of the middle two for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// --------------------------------------------------------------- oracles --

// One reported pair: ids into Water (a) and Roads (b) plus its distance.
struct PairRec {
  uint32_t a = 0;
  uint32_t b = 0;
  double d = 0.0;
  bool operator==(const PairRec& o) const {
    return a == o.a && b == o.b && d == o.d;
  }
};

inline uint64_t PairKey(const PairRec& p) {
  return (uint64_t{p.a} << 32) | p.b;
}

// Every (Water, Roads) pair at Euclidean distance <= r, found by a uniform
// grid of cell size r over Roads (independent of the R-tree engines).
inline std::vector<PairRec> GridPairsWithin(const std::vector<Point<2>>& a,
                                            const std::vector<Point<2>>& b,
                                            double r) {
  const auto cell = [r](double x) {
    return static_cast<int64_t>(std::floor(x / r));
  };
  const auto key = [](int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(cx) << 32) ^ static_cast<uint32_t>(cy);
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> grid;
  grid.reserve(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    grid[key(cell(b[j][0]), cell(b[j][1]))].push_back(
        static_cast<uint32_t>(j));
  }
  std::vector<PairRec> out;
  for (size_t i = 0; i < a.size(); ++i) {
    const int64_t cx = cell(a[i][0]);
    const int64_t cy = cell(a[i][1]);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = grid.find(key(cx + dx, cy + dy));
        if (it == grid.end()) continue;
        for (const uint32_t j : it->second) {
          const double ex = a[i][0] - b[j][0];
          const double ey = a[i][1] - b[j][1];
          const double d = std::sqrt(ex * ex + ey * ey);
          if (d <= r) out.push_back({static_cast<uint32_t>(i), j, d});
        }
      }
    }
  }
  return out;
}

// Reference for a nearest-first join drained to k pairs: every pair whose
// distance is <= the k-th smallest pair distance, sorted by distance.
inline std::vector<PairRec> KClosestReference(const std::vector<Point<2>>& a,
                                              const std::vector<Point<2>>& b,
                                              size_t k) {
  double r = 1.0;
  std::vector<PairRec> pairs;
  for (;;) {
    pairs = GridPairsWithin(a, b, r);
    if (pairs.size() >= k || r > 1e6) break;
    r *= 2.0;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const PairRec& x, const PairRec& y) { return x.d < y.d; });
  if (pairs.size() > k) {
    const double dk = pairs[k - 1].d;
    size_t end = k;
    while (end < pairs.size() && pairs[end].d <= dk) ++end;
    pairs.resize(end);
  }
  return pairs;
}

// Checks a distance-join stream drained to `k` pairs against `reference`
// (KClosestReference): exactly k pairs, nondecreasing distances, no pair
// twice, every pair in the reference with the same distance, and every
// reference pair strictly closer than the k-th distance present. Returns an
// empty string when the stream is correct, else what is wrong.
inline std::string CheckJoinStream(const std::vector<PairRec>& stream,
                                   size_t k,
                                   const std::vector<PairRec>& reference) {
  if (stream.size() != k) {
    return "stream has " + std::to_string(stream.size()) + " pairs, want " +
           std::to_string(k);
  }
  if (reference.size() < k) return "reference has fewer than k pairs";
  for (size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].d < stream[i - 1].d) {
      return "distance decreases at pair " + std::to_string(i + 1);
    }
  }
  std::unordered_map<uint64_t, double> ref;
  ref.reserve(reference.size());
  for (const PairRec& p : reference) ref.emplace(PairKey(p), p.d);
  std::unordered_map<uint64_t, bool> seen;
  seen.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t key = PairKey(stream[i]);
    if (!seen.emplace(key, true).second) {
      return "pair " + std::to_string(i + 1) + " reported twice";
    }
    const auto it = ref.find(key);
    if (it == ref.end() || it->second != stream[i].d) {
      return "pair " + std::to_string(i + 1) + " not in the reference";
    }
  }
  const double dk = reference[k - 1].d;
  if (stream.back().d != dk) return "k-th distance differs from reference";
  for (const PairRec& p : reference) {
    if (p.d < dk && seen.find(PairKey(p)) == seen.end()) {
      return "reference pair closer than the k-th distance is missing";
    }
  }
  return "";
}

// Checks an unordered result set against a reference set (same pairs and
// distances, nothing twice) and that `stream` reports in nondecreasing
// distance order. Empty string when correct.
inline std::string CheckSameSet(const std::vector<PairRec>& stream,
                                std::vector<PairRec> reference) {
  for (size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].d < stream[i - 1].d) {
      return "distance decreases at pair " + std::to_string(i + 1);
    }
  }
  if (stream.size() != reference.size()) {
    return "result has " + std::to_string(stream.size()) + " pairs, want " +
           std::to_string(reference.size());
  }
  std::vector<PairRec> got = stream;
  const auto by_key = [](const PairRec& x, const PairRec& y) {
    return PairKey(x) < PairKey(y);
  };
  std::sort(got.begin(), got.end(), by_key);
  std::sort(reference.begin(), reference.end(), by_key);
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && PairKey(got[i]) == PairKey(got[i - 1])) {
      return "a pair is reported twice";
    }
    if (!(got[i] == reference[i])) return "result set differs from reference";
  }
  return "";
}

// -------------------------------------------------------- resident memory --

// A /proc/self/status field in kB (VmRSS, VmHWM); -1 when unreadable.
inline double ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::atof(line.c_str() + prefix.size());
  }
  return -1.0;
}

// Keeps freed heap in the process, as a long-running server does, so a
// repetition reuses the memory the previous one freed instead of
// page-faulting it in again inside the timed region. By default glibc returns
// the top of the heap on every large free (and maps ~140 KiB pairing-heap
// blocks one by one), so each table1_even query would fault its ~400 MB queue
// back in: about 130 ms of a ~330 ms first pair on a 4-vCPU Xeon VM.
// Allocations above 32 MiB are still mapped and unmapped individually.
inline void RetainFreedHeap() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

// Returns freed heap to the kernel. Called once before the first timed
// repetition, so that repetition's RSS growth is what one query allocates.
inline void TrimHeap() { malloc_trim(0); }

// Restarts the peak-RSS (VmHWM) counter at the current RSS, so the next
// VmHWM read covers only what follows. Freed heap is deliberately not
// returned first: repetitions reuse it, as queries in a long-running process
// do, instead of page-faulting it in again inside the timed region. Returns
// false when /proc/self/clear_refs could not be written: VmHWM then still
// holds the process peak (set-up included), not the query's.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

inline double RssMb() { return ProcStatusKb("VmRSS") / 1024.0; }
inline double PeakRssMb() { return ProcStatusKb("VmHWM") / 1024.0; }

// ----------------------------------------------------------------- spans --

// Bench-side spans around calls into the library's layers. Kept in memory
// while the workload runs and written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint32_t parent;  // 0 = root
    uint64_t start_ns;
    uint64_t end_ns;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span; returns its id (1-based), or 0 when disabled.
  uint32_t Begin(const char* name, uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({name, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }
  // Records a finished span with explicit times.
  void Add(const char* name, uint32_t parent, uint64_t start_ns,
           uint64_t end_ns) {
    if (enabled_) spans_.push_back({name, parent, start_ns, end_ns});
  }

  size_t size() const { return spans_.size(); }
  // Drops every span recorded after the first `n` (keeps one repetition's
  // spans instead of all of them).
  void Truncate(size_t n) {
    if (spans_.size() > n) spans_.resize(n);
  }

  // Chrome trace-event JSON ("X" complete events; args carry id/parent).
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%u}}%s\n",
                   s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace sdj::perfbench

#endif  // SDJOIN_PERFBENCH_HARNESS_H_
