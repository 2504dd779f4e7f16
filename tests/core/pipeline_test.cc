#include "core/experiment.h"

#include <gtest/gtest.h>

#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using bgpolicy::testing::shared_experiment;
using util::AsNumber;

TEST(Scenario, CanonicalConfigsAreConsistent) {
  const Scenario big = Scenario::internet2002();
  EXPECT_EQ(big.topo_params.tier1_count, 10u);
  EXPECT_EQ(big.looking_glass.size(), 15u);   // the paper's 15 LG vantages
  EXPECT_EQ(big.verification_ases.size(), 9u);  // Table 4's 9 ASes
  EXPECT_EQ(big.policy_params.force_tagging.size(), 9u);
  const auto focus = Scenario::focus_tier1();
  EXPECT_EQ(focus.size(), 3u);

  const Scenario small = Scenario::small();
  EXPECT_LT(small.topo_params.stub_count, big.topo_params.stub_count);
}

TEST(Scenario, RegionLabelsAreDeterministicAndCoverAll) {
  std::map<std::string, int> counts;
  for (std::uint32_t as = 1; as < 500; ++as) {
    ++counts[region_of(AsNumber(as))];
    EXPECT_EQ(region_of(AsNumber(as)), region_of(AsNumber(as)));
  }
  EXPECT_GT(counts["NA"], counts["Au"]);
  EXPECT_GT(counts["Eu"], counts["As"]);
}

TEST(Pipeline, TablesRecordedForAllVantages) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  for (const auto as : exp.sim().vantage.looking_glass) {
    EXPECT_TRUE(view.has_table(as));
    EXPECT_GT(view.table_for(as).prefix_count(), 0u);
  }
  for (const auto as : exp.sim().vantage.best_only) {
    EXPECT_TRUE(view.has_table(as));
  }
  EXPECT_FALSE(view.has_table(AsNumber(424242)));
  EXPECT_THROW((void)view.table_for(AsNumber(424242)), std::out_of_range);
}

TEST(Pipeline, CollectorSeesNearlyAllPrefixes) {
  const auto& exp = shared_experiment();
  EXPECT_GT(exp.sim().sim.collector.prefix_count(),
            exp.truth().originations.size() * 9 / 10);
  EXPECT_EQ(exp.sim().sim.unconverged_prefixes, 0u);
}

TEST(Pipeline, InferenceProductsPopulated) {
  const auto& exp = shared_experiment();
  EXPECT_GT(exp.inference().inferred.edge_count(), 100u);
  EXPECT_GT(exp.inference().inferred_graph.as_count(), 100u);
  EXPECT_FALSE(exp.inference().tiers.tier1.empty());
  EXPECT_GT(exp.observations().paths.path_count(), 500u);
  EXPECT_FALSE(exp.observations().irr_objects.empty());
}

TEST(Pipeline, IrrLookupFindsRegisteredAses) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  std::size_t found = 0;
  for (const auto as : exp.truth().topo.graph.ases()) {
    if (view.irr_for(as) != nullptr) ++found;
  }
  const double coverage =
      static_cast<double>(found) /
      static_cast<double>(exp.truth().topo.graph.as_count());
  EXPECT_NEAR(coverage, exp.scenario().irr_params.coverage, 0.15);
}

TEST(Pipeline, CommunityVerifiedNeighborsNonEmptyForVerificationAses) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  for (const auto as_value : exp.scenario().verification_ases) {
    const AsNumber as{as_value};
    if (!exp.sim().sim.looking_glass.contains(as)) continue;
    EXPECT_FALSE(view.community_verified_neighbors(as).empty())
        << util::to_string(as);
  }
}

TEST(Pipeline, CommunityVerificationRequiresLookingGlass) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  EXPECT_THROW(view.community_verification(AsNumber(424242)),
               std::invalid_argument);
}

}  // namespace
}  // namespace bgpolicy::core
