// The best-first core fingerprints the options every engine shares
// (EngineOptions: metric, tie_break, use_hybrid_queue, hybrid.tier_width,
// screen_codes) in SaveCore/RestoreCore, so no policy can forget one. For
// every policy and each of those fields, a snapshot saved under one value
// must be refused by an engine built with another, and the refusing engine
// must then iterate from scratch exactly like a fresh one.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_first.h"
#include "core/distance_join.h"
#include "core/semi_join.h"
#include "core/snapshot.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "rtree/rtree.h"

namespace sdj {
namespace {

enum class Policy { kJoin, kSemi, kWithin, kNearest, kFarthest };
enum class Field { kMetric, kTieBreak, kHybrid, kTierWidth, kScreen };

using Tweak = std::function<void(EngineOptions*)>;

void Change(Field field, EngineOptions* options) {
  switch (field) {
    case Field::kMetric:
      options->metric = Metric::kManhattan;
      break;
    case Field::kTieBreak:
      options->tie_break = TieBreakPolicy::kBreadthFirst;
      break;
    case Field::kHybrid:
      options->use_hybrid_queue = true;
      break;
    case Field::kTierWidth:
      options->hybrid.tier_width *= 2.0;
      break;
    case Field::kScreen:
      options->screen_codes = !options->screen_codes;
      break;
  }
}

std::string Describe(const JoinResult<2>& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu %llu %.17g",
                static_cast<unsigned long long>(r.id1),
                static_cast<unsigned long long>(r.id2), r.distance);
  return buf;
}

std::string Describe(const NeighborResult<2>& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu %.17g",
                static_cast<unsigned long long>(r.id), r.distance);
  return buf;
}

template <typename Engine>
std::vector<std::string> Drain(Engine* engine, size_t cap) {
  std::vector<std::string> out;
  typename Engine::Result r;
  while (out.size() < cap && engine->Next(&r)) out.push_back(Describe(r));
  return out;
}

// Saves `make(no change)` after a few results, then checks that an engine
// built with `change` refuses the snapshot and streams like a fresh one.
template <typename Engine>
void ExpectRefusedAndFresh(
    const std::function<std::unique_ptr<Engine>(const Tweak&)>& make,
    const Tweak& change) {
  std::unique_ptr<Engine> saved = make([](EngineOptions*) {});
  ASSERT_EQ(Drain(saved.get(), 5).size(), 5u);
  snapshot::Blob blob;
  ASSERT_TRUE(saved->SaveState(&blob));

  std::unique_ptr<Engine> changed = make(change);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_FALSE(changed->RestoreState(&reader));
  std::unique_ptr<Engine> fresh = make(change);
  const std::vector<std::string> expected = Drain(fresh.get(), 60);
  EXPECT_EQ(expected.size(), 60u);
  EXPECT_EQ(Drain(changed.get(), 60), expected);
}

class EngineFingerprint
    : public ::testing::TestWithParam<std::tuple<Policy, Field>> {
 protected:
  static void SetUpTestSuite() {
    const Rect<2> extent({0.0, 0.0}, {100.0, 100.0});
    tree_a_ = new RTree<2>(
        test::BuildPointTree(data::GenerateUniform(400, extent, 7)));
    tree_b_ = new RTree<2>(
        test::BuildPointTree(data::GenerateUniform(400, extent, 8)));
  }
  static void TearDownTestSuite() {
    delete tree_a_;
    delete tree_b_;
  }

  static RTree<2>* tree_a_;
  static RTree<2>* tree_b_;
};

RTree<2>* EngineFingerprint::tree_a_ = nullptr;
RTree<2>* EngineFingerprint::tree_b_ = nullptr;

TEST_P(EngineFingerprint, RefusesSharedFieldMismatch) {
  const auto [policy, field] = GetParam();
  const Tweak change = [field](EngineOptions* o) { Change(field, o); };
  const RTree<2>& a = *tree_a_;
  const RTree<2>& b = *tree_b_;
  const Point<2> query{37.0, 61.0};
  switch (policy) {
    case Policy::kJoin:
      ExpectRefusedAndFresh<DistanceJoin<2>>(
          [&](const Tweak& tweak) {
            DistanceJoinOptions options;
            tweak(&options);
            return std::make_unique<DistanceJoin<2>>(a, b, options);
          },
          change);
      break;
    case Policy::kSemi:
      ExpectRefusedAndFresh<DistanceSemiJoin<2>>(
          [&](const Tweak& tweak) {
            SemiJoinOptions options;
            tweak(&options.join);
            return std::make_unique<DistanceSemiJoin<2>>(a, b, options);
          },
          change);
      break;
    case Policy::kWithin:
      ExpectRefusedAndFresh<IncWithinJoin<2>>(
          [&](const Tweak& tweak) {
            WithinJoinOptions options;
            options.epsilon = 10.0;
            tweak(&options);
            return std::make_unique<IncWithinJoin<2>>(a, b, options);
          },
          change);
      break;
    case Policy::kNearest:
      ExpectRefusedAndFresh<IncNearestNeighbor<2>>(
          [&](const Tweak& tweak) {
            IncNeighborOptions options;
            tweak(&options);
            return std::make_unique<IncNearestNeighbor<2>>(a, query, options);
          },
          change);
      break;
    case Policy::kFarthest:
      ExpectRefusedAndFresh<IncFarthestNeighbor<2>>(
          [&](const Tweak& tweak) {
            IncNeighborOptions options;
            tweak(&options);
            return std::make_unique<IncFarthestNeighbor<2>>(a, query,
                                                            options);
          },
          change);
      break;
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Policy, Field>>& info) {
  static const char* const kPolicies[] = {"Join", "Semi", "Within", "Nearest",
                                          "Farthest"};
  static const char* const kFields[] = {"Metric", "TieBreak", "Hybrid",
                                        "TierWidth", "Screen"};
  return std::string(kPolicies[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kFields[static_cast<int>(std::get<1>(info.param))];
}

// Every policy × shared field, except the hybrid queue for farthest-first
// search, whose constructor CHECKs that use_hybrid_queue stays false.
std::vector<std::tuple<Policy, Field>> AllCases() {
  std::vector<std::tuple<Policy, Field>> cases;
  for (const Policy policy : {Policy::kJoin, Policy::kSemi, Policy::kWithin,
                              Policy::kNearest, Policy::kFarthest}) {
    for (const Field field : {Field::kMetric, Field::kTieBreak,
                              Field::kHybrid, Field::kTierWidth,
                              Field::kScreen}) {
      if (policy == Policy::kFarthest && field == Field::kHybrid) continue;
      cases.emplace_back(policy, field);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EngineFingerprint,
                         ::testing::ValuesIn(AllCases()), ParamName);

}  // namespace
}  // namespace sdj
