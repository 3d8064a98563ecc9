// Tests for the quantized node layout (rtree/node_layout.h, DESIGN.md §15):
// outward-rounding encode properties, codec operations against a reference
// model, full-tree behavior under NodeEncoding::kQuantized, persistence, and
// the loose-d_max regression — indexes whose node regions are not minimal
// bounding regions at runtime (quantized R-tree, quadtree) must never be
// given MINMAXDIST-based bounds, whatever their compile-time constant says.
#include "rtree/node_layout.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "geometry/distance.h"
#include "geometry/rect.h"
#include "join_test_util.h"
#include "quadtree/quadtree.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace sdj {
namespace {

using rtree_internal::NodeCodec;
using rtree_internal::NodeLayout;
using rtree_internal::QuantizedNodeLayout;

using QL2 = QuantizedNodeLayout<2>;
// 1-D layout for the grid-math tests below: MakeGrid takes per-dimension
// arrays, and these tests exercise a single dimension.
using QL1 = QuantizedNodeLayout<1>;

// ---- layout-level properties ----

TEST(QuantizedLayout, FanOutBeatsRawLayout) {
  // 2-D, 2048-byte pages: raw fits 51 forty-byte entries; quantized pays 32
  // bytes of grid once and then 16 bytes per entry.
  EXPECT_EQ(NodeLayout<2>::Capacity(2048), 51u);
  EXPECT_EQ(QL2::Capacity(2048), 125u);
  EXPECT_EQ(QL2::kEntrySize, 16u);
  // The fan-out advantage must hold in higher dimensions too.
  EXPECT_GT(QuantizedNodeLayout<4>::Capacity(2048),
            NodeLayout<4>::Capacity(2048));
}

TEST(QuantizedLayout, MakeGridCoversRequestedSpan) {
  Rng rng(7001);
  for (int trial = 0; trial < 2000; ++trial) {
    double lo = rng.Uniform(-1e6, 1e6);
    double hi = lo + rng.Uniform(0.0, 1e6);
    const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
    ASSERT_EQ(g.base[0], lo);
    // Code 0 decodes to base; the top code must reach at least hi.
    ASSERT_LE(QL1::Decode(g, 0, 0), lo);
    ASSERT_GE(QL1::Decode(g, 0, QL1::kMaxCode), hi);
  }
}

TEST(QuantizedLayout, MakeGridSurvivesExtremeSpans) {
  // max_hi - min_lo overflows a double here; the halved-form scale must not.
  double lo = -1.6e308;
  double hi = 1.6e308;
  const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
  EXPECT_TRUE(std::isfinite(g.scale[0]));
  EXPECT_GE(QL1::Decode(g, 0, QL1::kMaxCode), hi);
  // Degenerate span: every code decodes to the single coordinate.
  double x = 3.25;
  const QL1::Grid point_grid = QL1::MakeGrid(&x, &x);
  EXPECT_EQ(point_grid.scale[0], 0.0);
  EXPECT_EQ(QL1::Decode(point_grid, 0, QL1::kMaxCode), x);
}

TEST(QuantizedLayout, EncodeRoundsOutward) {
  // The correctness keystone: EncodeLo never decodes above its input,
  // EncodeHi never below, and both pick the TIGHTEST such code. Outward
  // rounding is what keeps decoded MBRs containing the stored rects, which
  // keeps MINDIST a valid lower bound (Section 2.2 consistency).
  Rng rng(7002);
  for (int trial = 0; trial < 5000; ++trial) {
    double lo = rng.Uniform(-1e3, 1e3);
    double hi = lo + rng.Uniform(0.0, 2e3);
    const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
    const double x = rng.Uniform(lo, hi);
    const uint16_t ql = QL1::EncodeLo(g, 0, x);
    const uint16_t qh = QL1::EncodeHi(g, 0, x);
    ASSERT_LE(QL1::Decode(g, 0, ql), x);
    ASSERT_GE(QL1::Decode(g, 0, qh), x);
    // Tightness: the neighboring codes would violate the bound. (With a
    // zero scale every code decodes to base and tightness is vacuous.)
    if (g.scale[0] > 0.0) {
      if (ql < QL1::kMaxCode) {
        ASSERT_GT(QL1::Decode(g, 0, static_cast<uint16_t>(ql + 1)), x);
      }
      if (qh > 0) {
        ASSERT_LT(QL1::Decode(g, 0, static_cast<uint16_t>(qh - 1)), x);
      }
    }
    // Grid points must round-trip exactly (decode is exact arithmetic).
    const uint16_t code = static_cast<uint16_t>(rng.Uniform(0.0, 65535.0));
    const double grid_point = QL1::Decode(g, 0, code);
    ASSERT_EQ(QL1::Decode(g, 0, QL1::EncodeLo(g, 0, grid_point)), grid_point);
    ASSERT_EQ(QL1::Decode(g, 0, QL1::EncodeHi(g, 0, grid_point)), grid_point);
  }
}

TEST(QuantizedLayout, EncodeSaturatesOnDegenerateGrid) {
  // A zero-width grid (scale 0) decodes every code to base. EncodeLo is
  // always outward there (base <= x for any representable lo); EncodeHi
  // must return 0 only when base already covers x — for x above base it
  // saturates to the TOP code instead of silently landing at the bottom
  // (the old `return 0` produced a decode maximally below x).
  double p = 3.25;
  const QL1::Grid g = QL1::MakeGrid(&p, &p);
  ASSERT_EQ(g.scale[0], 0.0);
  EXPECT_EQ(QL1::EncodeLo(g, 0, p), 0);
  EXPECT_EQ(QL1::EncodeHi(g, 0, p), 0);
  EXPECT_EQ(QL1::EncodeHi(g, 0, p - 1.0), 0);
  EXPECT_EQ(QL1::EncodeHi(g, 0, p + 1.0), QL1::kMaxCode);
  EXPECT_EQ(QL1::EncodeHi(g, 0, std::numeric_limits<double>::infinity()),
            QL1::kMaxCode);
  // No such rect can be stored: the write paths gate on CanRepresent, which
  // fails whenever hi exceeds the degenerate span.
  Rect<1> above;
  above.lo[0] = p;
  above.hi[0] = p + 1.0;
  EXPECT_FALSE(QL1::CanRepresent(g, above));
  Rect<1> at;
  at.lo[0] = p;
  at.hi[0] = p;
  EXPECT_TRUE(QL1::CanRepresent(g, at));
}

TEST(QuantizedLayout, CanRepresentRejectsUnencodableRects) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  double lo = 0.0;
  double hi = 100.0;
  const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
  const auto rect = [](double l, double h) {
    Rect<1> r;
    r.lo[0] = l;
    r.hi[0] = h;
    return r;
  };
  EXPECT_TRUE(QL1::CanRepresent(g, rect(10.0, 20.0)));
  // Fits reports NaN rects as covered (both comparisons false); the strict
  // form must reject them, along with infinities and inverted intervals.
  EXPECT_TRUE(QL1::Fits(g, rect(kNan, kNan)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(kNan, kNan)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(10.0, kNan)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(kNan, 20.0)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(10.0, kInf)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(-kInf, 20.0)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(20.0, 10.0)));
  // Out-of-span but otherwise well-formed: rejected by the Fits part.
  EXPECT_FALSE(QL1::CanRepresent(g, rect(-10.0, 20.0)));
  EXPECT_FALSE(QL1::CanRepresent(g, rect(10.0, 200.0)));
}

TEST(QuantizedLayout, MakeGridSurvivesNarrowSpansAtLargeMagnitude) {
  // Regression: the halved-form scale estimate ((hi/2)/(kMax/2) -
  // (lo/2)/(kMax/2)) catastrophically cancels for narrow spans at large
  // magnitudes, landing the estimate at 0.0; the ulp walk up from the
  // denormals then effectively never terminates. The direct-difference
  // estimate must produce a positive covering scale immediately.
  Rng rng(7030);
  for (int trial = 0; trial < 500; ++trial) {
    const double mag = rng.Uniform(1e12, 1e15);
    double lo = mag;
    double hi = mag + rng.Uniform(1e-3, 1.0);
    const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
    ASSERT_TRUE(std::isfinite(g.scale[0]));
    if (hi > lo) {
      // Distinct endpoints demand a positive covering scale.
      ASSERT_GT(g.scale[0], 0.0);
    }
    // Near 1e15 a sub-ulp span rounds hi onto lo; the degenerate zero-scale
    // grid is then correct, and coverage still has to hold.
    ASSERT_GE(QL1::Decode(g, 0, QL1::kMaxCode), hi);
  }
}

TEST(QuantizedLayout, EncodePropertiesHoldOnIeeeSpecialSpans) {
  // Grids built from IEEE edge-case coordinates (signed zeros, denormals,
  // huge magnitudes, full-range spans) must keep the outward-rounding
  // contract for every in-span input: Decode(EncodeLo) <= x and
  // Decode(EncodeHi) >= x whenever the rect is representable.
  const double kDen = std::numeric_limits<double>::denorm_min();
  const double kMin = std::numeric_limits<double>::min();
  const double kMax = std::numeric_limits<double>::max();
  const double specials[] = {0.0,  -0.0,   1.0,  -1.0,   kDen,  -kDen,
                             kMin, -kMin,  kMax, -kMax,  1e-300, 1e300,
                             -1e300, 42.5, -42.5};
  Rng rng(7031);
  for (const double a : specials) {
    for (const double b : specials) {
      const double lo = std::min(a, b);
      const double hi = std::max(a, b);
      const QL1::Grid g = QL1::MakeGrid(&lo, &hi);
      ASSERT_TRUE(std::isfinite(g.scale[0])) << lo << " " << hi;
      ASSERT_GE(g.scale[0], 0.0);
      ASSERT_LE(QL1::Decode(g, 0, 0), lo);
      ASSERT_GE(QL1::Decode(g, 0, QL1::kMaxCode), hi);
      // Endpoints, and a few interior points when the span allows them.
      std::vector<double> xs = {lo, hi};
      for (int k = 0; k < 8; ++k) {
        const double t = rng.Uniform(0.0, 1.0);
        // Convex blend that never overflows (lo/hi may be +-kMax).
        const double x = lo * (1.0 - t) + hi * t;
        if (std::isfinite(x) && x >= lo && x <= hi) xs.push_back(x);
      }
      for (const double x : xs) {
        const uint16_t ql = QL1::EncodeLo(g, 0, x);
        const uint16_t qh = QL1::EncodeHi(g, 0, x);
        ASSERT_LE(QL1::Decode(g, 0, ql), x) << lo << " " << hi << " " << x;
        ASSERT_GE(QL1::Decode(g, 0, qh), x) << lo << " " << hi << " " << x;
        Rect<1> r;
        r.lo[0] = x;
        r.hi[0] = x;
        ASSERT_TRUE(QL1::CanRepresent(g, r));
      }
    }
  }
}

TEST(QuantizedLayout, RewriteAllDecodedRectsContainInputs) {
  Rng rng(7003);
  std::vector<char> page(2048, 0);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<Rect<2>, uint64_t>> entries;
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 100.0));
    for (int i = 0; i < n; ++i) {
      Rect<2> r;
      for (int d = 0; d < 2; ++d) {
        r.lo[d] = rng.Uniform(-1e4, 1e4);
        r.hi[d] = r.lo[d] + rng.Uniform(0.0, 50.0);
      }
      entries.push_back({r, static_cast<uint64_t>(i)});
    }
    QL2::RewriteAll(page.data(), entries);
    ASSERT_EQ(NodeLayout<2>::GetCount(page.data()), n);
    for (int i = 0; i < n; ++i) {
      const Rect<2> dec = QL2::GetRect(page.data(), i);
      ASSERT_TRUE(dec.Contains(entries[i].first)) << trial << ":" << i;
      ASSERT_EQ(QL2::GetRef(page.data(), i), entries[i].second);
      ASSERT_TRUE(QL2::Fits(QL2::GetGrid(page.data()), dec));
    }
  }
}

// Codec operations against a reference vector<(rect, ref)> model. The model
// holds the DECODED rects (what any reader sees); after every operation each
// stored entry must decode to a rect containing its model rect, and refs and
// counts must match exactly.
TEST(QuantizedCodec, OperationsMatchReferenceModel) {
  Rng rng(7004);
  const NodeCodec<2> codec(NodeEncoding::kQuantized);
  std::vector<char> page(2048, 0);
  codec.Init(page.data(), /*level=*/2);
  EXPECT_EQ(codec.GetLevel(page.data()), 2);
  EXPECT_EQ(codec.GetCount(page.data()), 0);

  std::vector<std::pair<Rect<2>, uint64_t>> model;
  const auto check = [&] {
    ASSERT_EQ(codec.GetCount(page.data()), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      ASSERT_TRUE(codec.GetRect(page.data(), static_cast<uint32_t>(i))
                      .Contains(model[i].first));
      ASSERT_EQ(codec.GetRef(page.data(), static_cast<uint32_t>(i)),
                model[i].second);
    }
  };
  const auto random_rect = [&](double span) {
    Rect<2> r;
    for (int d = 0; d < 2; ++d) {
      r.lo[d] = rng.Uniform(-span, span);
      r.hi[d] = r.lo[d] + rng.Uniform(0.0, span / 10.0);
    }
    return r;
  };

  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.Uniform(0.0, 1.0);
    if (model.size() < 100 && (roll < 0.5 || model.empty())) {
      // Append — alternate between rects inside the current grid span and
      // far-away ones that force the widening re-grid path.
      const Rect<2> r = random_rect(roll < 0.25 ? 10.0 : 1e4);
      codec.Append(page.data(), r, op);
      model.push_back({r, static_cast<uint64_t>(op)});
    } else if (roll < 0.75 && !model.empty()) {
      const uint32_t i =
          static_cast<uint32_t>(rng.Uniform(0.0, model.size() - 0.001));
      codec.Remove(page.data(), i);
      // Swap-last, exactly as the raw layout removes.
      model[i] = model.back();
      model.pop_back();
    } else if (!model.empty()) {
      const uint32_t i =
          static_cast<uint32_t>(rng.Uniform(0.0, model.size() - 0.001));
      const Rect<2> r = random_rect(1e4);
      codec.SetEntryRect(page.data(), i, r);
      model[i].first = r;
    }
    check();
    // Widening re-grids must never un-cover surviving entries: every stored
    // code still decodes inside the grid.
    ASSERT_EQ(codec.GetLevel(page.data()), 2);
  }

  // WriteAll replaces everything with a slice and a fresh tight grid.
  std::vector<std::pair<Rect<2>, uint64_t>> bulk;
  for (int i = 0; i < 40; ++i) bulk.push_back({random_rect(500.0), 1000u + i});
  codec.WriteAll(page.data(), bulk, 10, 30);
  model.assign(bulk.begin() + 10, bulk.begin() + 30);
  check();
}

// ---- full-tree behavior under NodeEncoding::kQuantized ----

RTreeOptions QuantizedOptions(uint32_t page_size = 512) {
  RTreeOptions options;
  options.page_size = page_size;
  options.encoding = NodeEncoding::kQuantized;
  return options;
}

std::vector<Rect<2>> RandomRects(Rng& rng, size_t n, double span,
                                 double extent) {
  std::vector<Rect<2>> rects;
  for (size_t i = 0; i < n; ++i) {
    Rect<2> r;
    for (int d = 0; d < 2; ++d) {
      r.lo[d] = rng.Uniform(0.0, extent);
      r.hi[d] = r.lo[d] + rng.Uniform(0.0, span);
    }
    rects.push_back(r);
  }
  return rects;
}

TEST(QuantizedRTree, InsertValidateAndRangeQuery) {
  Rng rng(7010);
  const std::vector<Rect<2>> rects = RandomRects(rng, 2000, 5.0, 1000.0);
  RTree<2> tree(QuantizedOptions());
  for (size_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  ASSERT_EQ(tree.size(), rects.size());
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  EXPECT_FALSE(tree.minimal_bounding_regions());

  // The tree's leaf entries are the DECODED (outward-rounded) rects; range
  // queries are exact over those, which makes them a superset of the results
  // over the original rects.
  std::vector<std::pair<Rect<2>, ObjectId>> stored;
  tree.ForEachObject(
      [&](const Rect<2>& r, ObjectId id) { stored.push_back({r, id}); });
  ASSERT_EQ(stored.size(), rects.size());
  for (const auto& [r, id] : stored) {
    ASSERT_TRUE(r.Contains(rects[id])) << id;
  }
  for (int q = 0; q < 50; ++q) {
    Rect<2> query;
    for (int d = 0; d < 2; ++d) {
      query.lo[d] = rng.Uniform(0.0, 900.0);
      query.hi[d] = query.lo[d] + rng.Uniform(10.0, 100.0);
    }
    std::vector<RTree<2>::Entry> out;
    tree.RangeQuery(query, &out);
    std::set<ObjectId> got;
    for (const auto& e : out) got.insert(e.id);
    ASSERT_EQ(got.size(), out.size());  // no duplicates
    std::set<ObjectId> expected;
    for (const auto& [r, id] : stored) {
      if (r.Intersects(query)) expected.insert(id);
    }
    ASSERT_EQ(got, expected) << q;
    // Superset of the pre-quantization answer.
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(query)) {
        ASSERT_TRUE(got.count(i)) << i;
      }
    }
  }
}

TEST(QuantizedRTree, HigherFanOutShrinksTheTree) {
  Rng rng(7011);
  const std::vector<Rect<2>> rects = RandomRects(rng, 3000, 2.0, 1000.0);
  RTreeOptions raw;
  raw.page_size = 2048;
  RTree<2> raw_tree(raw);
  RTree<2> q_tree(QuantizedOptions(2048));
  for (size_t i = 0; i < rects.size(); ++i) {
    raw_tree.Insert(rects[i], i);
    q_tree.Insert(rects[i], i);
  }
  EXPECT_EQ(q_tree.max_entries(), 125u);
  EXPECT_EQ(raw_tree.max_entries(), 51u);
  EXPECT_LE(q_tree.height(), raw_tree.height());
  EXPECT_LT(q_tree.num_nodes(), raw_tree.num_nodes());
  ASSERT_TRUE(q_tree.Validate());
}

TEST(QuantizedRTree, DeleteByOriginalRect) {
  // FindLeaf under quantization matches by containment (the stored rect is
  // the outward-rounded original), so deleting with the ORIGINAL rect works.
  Rng rng(7012);
  const std::vector<Rect<2>> rects = RandomRects(rng, 600, 4.0, 500.0);
  RTree<2> tree(QuantizedOptions());
  for (size_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  std::vector<size_t> order(rects.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Deterministic shuffle via the test Rng.
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng.Uniform(0.0, i - 0.001))]);
  }
  for (size_t k = 0; k < order.size(); ++k) {
    ASSERT_TRUE(tree.Delete(rects[order[k]], order[k])) << k;
    if (k % 97 == 0) {
      std::string error;
      ASSERT_TRUE(tree.Validate(&error)) << error;
    }
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Validate());
}

TEST(QuantizedRTree, BulkLoadMatchesInsertedContent) {
  Rng rng(7013);
  const std::vector<Rect<2>> rects = RandomRects(rng, 1500, 3.0, 800.0);
  std::vector<RTree<2>::Entry> entries;
  for (size_t i = 0; i < rects.size(); ++i) entries.push_back({rects[i], i});
  RTree<2> tree(QuantizedOptions());
  tree.BulkLoad(std::move(entries));
  ASSERT_EQ(tree.size(), rects.size());
  std::string error;
  ASSERT_TRUE(tree.Validate(&error)) << error;
  size_t seen = 0;
  tree.ForEachObject([&](const Rect<2>& r, ObjectId id) {
    ASSERT_TRUE(r.Contains(rects[id]));
    ++seen;
  });
  EXPECT_EQ(seen, rects.size());
}

TEST(QuantizedRTree, PersistsAndRefusesEncodingMismatch) {
  const std::string path = test::TempPath("quantized_rtree.pages");
  std::remove(path.c_str());
  Rng rng(7014);
  const std::vector<Rect<2>> rects = RandomRects(rng, 400, 3.0, 300.0);
  RTreeOptions options = QuantizedOptions();
  options.file_path = path;
  {
    RTree<2> tree(options);
    for (size_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
    ASSERT_TRUE(tree.Flush());
  }
  // Reopening with the matching encoding restores the identical content.
  std::unique_ptr<RTree<2>> reopened = RTree<2>::Open(options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), rects.size());
  EXPECT_FALSE(reopened->minimal_bounding_regions());
  std::string error;
  ASSERT_TRUE(reopened->Validate(&error)) << error;
  reopened->ForEachObject([&](const Rect<2>& r, ObjectId id) {
    ASSERT_TRUE(r.Contains(rects[id]));
  });
  reopened.reset();
  // A raw-encoding open of a quantized file must refuse (meta v3 records the
  // encoding): decoding u16 codes as doubles would be silent corruption.
  RTreeOptions mismatched = options;
  mismatched.encoding = NodeEncoding::kRaw;
  EXPECT_EQ(RTree<2>::Open(mismatched), nullptr);
  std::remove(path.c_str());
}

// ---- joins over quantized trees ----

TEST(QuantizedRTree, DistanceJoinMatchesBruteForceOverDecodedRects) {
  Rng rng(7015);
  const std::vector<Rect<2>> rects1 = RandomRects(rng, 1000, 4.0, 400.0);
  const std::vector<Rect<2>> rects2 = RandomRects(rng, 1000, 4.0, 400.0);
  RTree<2> tree1(QuantizedOptions());
  RTree<2> tree2(QuantizedOptions());
  for (size_t i = 0; i < rects1.size(); ++i) tree1.Insert(rects1[i], i);
  for (size_t i = 0; i < rects2.size(); ++i) tree2.Insert(rects2[i], i);

  // Reference distances over what the tree actually stores: the decoded
  // leaf rects. The pair stream must be exactly the sorted cross product.
  std::vector<Rect<2>> dec1(rects1.size()), dec2(rects2.size());
  tree1.ForEachObject([&](const Rect<2>& r, ObjectId id) { dec1[id] = r; });
  tree2.ForEachObject([&](const Rect<2>& r, ObjectId id) { dec2[id] = r; });

  DistanceJoinOptions options;
  options.max_pairs = 5000;
  DistanceJoin<2> join(tree1, tree2, options);
  std::vector<double> expected;
  for (const Rect<2>& a : dec1) {
    for (const Rect<2>& b : dec2) {
      expected.push_back(MinDist(a, b, options.metric));
    }
  }
  std::sort(expected.begin(), expected.end());
  JoinResult<2> pair;
  size_t k = 0;
  double last = 0.0;
  while (join.Next(&pair)) {
    ASSERT_EQ(pair.distance, MinDist(dec1[pair.id1], dec2[pair.id2]));
    ASSERT_EQ(pair.distance, expected[k]) << k;
    ASSERT_GE(pair.distance, last);
    last = pair.distance;
    ++k;
  }
  EXPECT_EQ(k, options.max_pairs);
}

// The integer code screen (DESIGN.md §17) must be invisible in the output:
// same pairs, same distances, same pre-existing stats — only the two
// screening counters (and skipped decode work) may differ. A finite cutoff
// on quantized trees is exactly the configuration that engages it, so this
// also asserts the screen actually fires (prunes some entries, passes
// others) rather than vacuously agreeing.
TEST(QuantizedRTree, CodeScreenPrunesWithoutChangingTheStream) {
  Rng rng(7040);
  const std::vector<Rect<2>> rects1 = RandomRects(rng, 600, 4.0, 400.0);
  const std::vector<Rect<2>> rects2 = RandomRects(rng, 600, 4.0, 400.0);
  RTree<2> tree1(QuantizedOptions());
  RTree<2> tree2(QuantizedOptions());
  for (size_t i = 0; i < rects1.size(); ++i) tree1.Insert(rects1[i], i);
  for (size_t i = 0; i < rects2.size(); ++i) tree2.Insert(rects2[i], i);

  auto run = [&](bool screen) {
    DistanceJoinOptions options;
    options.max_distance = 10.0;
    options.screen_codes = screen;
    DistanceJoin<2> join(tree1, tree2, options);
    std::vector<JoinResult<2>> pairs;
    JoinResult<2> pair;
    while (join.Next(&pair)) pairs.push_back(pair);
    return std::make_pair(pairs, join.stats());
  };
  const auto [on_pairs, on_stats] = run(true);
  const auto [off_pairs, off_stats] = run(false);

  ASSERT_EQ(on_pairs.size(), off_pairs.size());
  ASSERT_GT(on_pairs.size(), 0u);
  for (size_t i = 0; i < on_pairs.size(); ++i) {
    ASSERT_EQ(on_pairs[i].id1, off_pairs[i].id1) << i;
    ASSERT_EQ(on_pairs[i].id2, off_pairs[i].id2) << i;
    ASSERT_EQ(on_pairs[i].distance, off_pairs[i].distance) << i;
  }
  EXPECT_EQ(on_stats.pairs_reported, off_stats.pairs_reported);
  EXPECT_EQ(on_stats.total_distance_calcs, off_stats.total_distance_calcs);
  EXPECT_EQ(on_stats.object_distance_calcs, off_stats.object_distance_calcs);
  EXPECT_EQ(on_stats.queue_pushes, off_stats.queue_pushes);
  EXPECT_EQ(on_stats.queue_pops, off_stats.queue_pops);
  EXPECT_EQ(on_stats.nodes_expanded, off_stats.nodes_expanded);
  EXPECT_EQ(on_stats.pruned_by_range, off_stats.pruned_by_range);
  EXPECT_EQ(on_stats.batch_kernel_invocations,
            off_stats.batch_kernel_invocations);
  // The screen did real work...
  EXPECT_GT(on_stats.screened_candidates, 0u);
  EXPECT_GT(on_stats.screen_survivors, 0u);
  EXPECT_LT(on_stats.screen_survivors, on_stats.screened_candidates);
  // ...and with it off, the counters stay silent.
  EXPECT_EQ(off_stats.screened_candidates, 0u);
  EXPECT_EQ(off_stats.screen_survivors, 0u);
}

// The loose-d_max regression (Section 2.2.3 / 4.2.1): a semi-join over an
// index without minimal bounding regions must still be correct, because the
// engine consults minimal_bounding_regions() at RUNTIME and falls back to
// containment-only bounds. Verified against brute-force nearest neighbors
// computed over the decoded rects, for every d_max bound variant.
TEST(QuantizedRTree, SemiJoinUsesLooseBoundsAndStaysCorrect) {
  Rng rng(7016);
  const std::vector<Rect<2>> rects1 = RandomRects(rng, 400, 3.0, 300.0);
  const std::vector<Rect<2>> rects2 = RandomRects(rng, 400, 3.0, 300.0);
  RTree<2> tree1(QuantizedOptions());
  RTree<2> tree2(QuantizedOptions());
  for (size_t i = 0; i < rects1.size(); ++i) tree1.Insert(rects1[i], i);
  for (size_t i = 0; i < rects2.size(); ++i) tree2.Insert(rects2[i], i);
  std::vector<Rect<2>> dec1(rects1.size()), dec2(rects2.size());
  tree1.ForEachObject([&](const Rect<2>& r, ObjectId id) { dec1[id] = r; });
  tree2.ForEachObject([&](const Rect<2>& r, ObjectId id) { dec2[id] = r; });

  // Brute-force semi-join: each first object's nearest decoded partner
  // distance, streamed ascending.
  std::vector<double> expected;
  for (const Rect<2>& a : dec1) {
    double best = std::numeric_limits<double>::infinity();
    for (const Rect<2>& b : dec2) best = std::min(best, MinDist(a, b));
    expected.push_back(best);
  }
  std::sort(expected.begin(), expected.end());

  for (const SemiJoinBound bound :
       {SemiJoinBound::kNone, SemiJoinBound::kLocal,
        SemiJoinBound::kGlobalNodes, SemiJoinBound::kGlobalAll}) {
    SemiJoinOptions options;
    options.bound = bound;
    DistanceSemiJoin<2> semi(tree1, tree2, options);
    JoinResult<2> pair;
    std::vector<bool> seen(rects1.size(), false);
    size_t k = 0;
    while (semi.Next(&pair)) {
      ASSERT_FALSE(seen[pair.id1]);
      seen[pair.id1] = true;
      ASSERT_LT(k, expected.size());
      ASSERT_EQ(pair.distance, expected[k])
          << "bound=" << static_cast<int>(bound) << " k=" << k;
      ++k;
    }
    EXPECT_EQ(k, rects1.size()) << static_cast<int>(bound);
  }
}

// The snapshot fingerprint captures runtime minimality: a cursor saved over
// raw trees must refuse to restore into an engine over quantized trees (and
// vice versa) even though both are RTree<2> with equal sizes — their d_max
// machinery differs, so silently resuming would be unsound.
TEST(QuantizedRTree, SnapshotFingerprintSeparatesEncodings) {
  Rng rng(7017);
  const std::vector<Rect<2>> rects = RandomRects(rng, 300, 3.0, 300.0);
  RTreeOptions raw;
  raw.page_size = 512;
  RTree<2> raw1(raw), raw2(raw);
  RTree<2> q1(QuantizedOptions()), q2(QuantizedOptions());
  for (size_t i = 0; i < rects.size(); ++i) {
    raw1.Insert(rects[i], i);
    raw2.Insert(rects[i], i);
    q1.Insert(rects[i], i);
    q2.Insert(rects[i], i);
  }
  DistanceJoinOptions options;
  DistanceJoin<2> raw_join(raw1, raw2, options);
  snapshot::Blob blob;
  ASSERT_TRUE(raw_join.SaveState(&blob));
  DistanceJoin<2> quant_join(q1, q2, options);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_FALSE(quant_join.RestoreState(&reader));
  // Same-encoding restore stays possible.
  DistanceJoin<2> raw_join2(raw1, raw2, options);
  snapshot::BlobReader reader2(blob.data(), blob.size());
  EXPECT_TRUE(raw_join2.RestoreState(&reader2));
}

// Regression guard for the runtime-minimality flags themselves: the two
// non-minimal index configurations must report false, the raw R-tree true.
// (The engines key SemiPairMaxDist vs SemiPairMaxDistLoose off this — see
// DistanceJoin::SemiDmax.)
TEST(MinimalBoundingRegions, RuntimeFlagsMatchIndexSemantics) {
  RTree<2> raw_tree;
  EXPECT_TRUE(raw_tree.minimal_bounding_regions());
  RTree<2> quant_tree(QuantizedOptions());
  EXPECT_FALSE(quant_tree.minimal_bounding_regions());
  PointQuadtree<2> quadtree(Rect<2>({0, 0}, {1, 1}));
  EXPECT_FALSE(quadtree.minimal_bounding_regions());
  static_assert(RTree<2>::kMinimalBoundingRegions,
                "compile-time constant stays the upper bound");
  static_assert(!PointQuadtree<2>::kMinimalBoundingRegions,
                "quadtree regions are never minimal");
}

}  // namespace
}  // namespace sdj
