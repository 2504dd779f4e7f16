#include "asrel/tier_classify.h"

#include <gtest/gtest.h>

#include "testing/experiment_cache.h"

namespace bgpolicy::asrel {
namespace {

using bgpolicy::testing::shared_experiment;
using util::AsNumber;

TEST(TierClassify, HandBuiltHierarchy) {
  InferredRelationships rels;
  // Core: 100 and 101 peer, both high degree via many customers.
  rels.set(AsNumber(100), AsNumber(101), EdgeType::kPeer);
  for (std::uint32_t i = 0; i < 20; ++i) {
    rels.set(AsNumber(100), AsNumber(200 + i), EdgeType::kLoProviderOfHi);
    rels.set(AsNumber(101), AsNumber(300 + i), EdgeType::kLoProviderOfHi);
  }
  // 200 is a big transit: 15 customers of its own.
  for (std::uint32_t i = 0; i < 15; ++i) {
    rels.set(AsNumber(200), AsNumber(400 + i), EdgeType::kLoProviderOfHi);
  }
  // 201 is a small transit with one customer.
  rels.set(AsNumber(201), AsNumber(500), EdgeType::kLoProviderOfHi);

  TierParams params;
  params.tier1_min_degree = 5;
  params.tier2_min_cone = 10;
  const TierAssignment tiers = classify_tiers(rels, params);

  EXPECT_EQ(tiers.level_of(AsNumber(100)), 1);
  EXPECT_EQ(tiers.level_of(AsNumber(101)), 1);
  EXPECT_EQ(tiers.level_of(AsNumber(200)), 2);
  EXPECT_EQ(tiers.level_of(AsNumber(201)), 3);
  EXPECT_EQ(tiers.level_of(AsNumber(500)), 4);
  EXPECT_EQ(tiers.level_of(AsNumber(999)), 4);  // unknown: stub by default
  EXPECT_EQ(tiers.tier1.size(), 2u);
}

TEST(TierClassify, PipelineTier1MatchesGroundTruth) {
  const auto& exp = shared_experiment();
  // Every inferred Tier-1 is a true Tier-1.
  for (const auto as : exp.inference().tiers.tier1) {
    EXPECT_EQ(exp.truth().topo.tier_of(as), topo::Tier::kTier1)
        << util::to_string(as);
  }
  // And most true Tier-1s are recovered.
  std::size_t recovered = 0;
  for (const auto as : exp.truth().topo.tier1) {
    if (exp.inference().tiers.level_of(as) == 1) ++recovered;
  }
  EXPECT_GE(recovered, exp.truth().topo.tier1.size() - 1);
}

TEST(TierClassify, StubsLandInLevel4) {
  const auto& exp = shared_experiment();
  std::size_t checked = 0;
  std::size_t correct = 0;
  for (const auto as : exp.truth().topo.stubs) {
    if (!exp.inference().inferred_graph.contains(as)) continue;
    ++checked;
    if (exp.inference().tiers.level_of(as) == 4) ++correct;
  }
  ASSERT_GT(checked, 50u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(checked), 0.9);
}

}  // namespace
}  // namespace bgpolicy::asrel
