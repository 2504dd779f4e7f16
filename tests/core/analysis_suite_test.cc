// The sharded analysis suite must reproduce exactly what the direct
// per-table calls produce (the calls the bench binaries make one by one).
#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

TEST(AnalysisSuite, MatchesDirectPerTableCalls) {
  const auto& exp = testing::shared_experiment();
  const auto view = exp.view();
  const std::vector<AsNumber> vantages = recorded_vantages(exp.sim().sim);
  ASSERT_FALSE(vantages.empty());

  const AnalysisSuite suite = run_analysis_suite(view, vantages, 2);
  ASSERT_EQ(suite.vantages.size(), vantages.size());

  const RelationshipOracle rels = view.inferred_oracle();
  for (const AsNumber as : vantages) {
    const VantageAnalysis* bundle = suite.find(as);
    ASSERT_NE(bundle, nullptr) << "missing bundle for AS " << as.value();
    EXPECT_EQ(bundle->vantage, as);

    const auto direct_sa =
        infer_sa_prefixes(view.table_for(as), as, *view.inferred_graph, rels);
    EXPECT_EQ(bundle->sa.customer_prefixes, direct_sa.customer_prefixes);
    EXPECT_EQ(bundle->sa.sa_count, direct_sa.sa_count);

    const auto direct_homing = analyze_homing(direct_sa, *view.inferred_graph);
    EXPECT_EQ(bundle->homing.multihomed_ases, direct_homing.multihomed_ases);
    EXPECT_EQ(bundle->homing.singlehomed_ases,
              direct_homing.singlehomed_ases);

    const auto direct_causes = analyze_causes(
        direct_sa, view.table_for(as), *view.paths, *view.inferred_graph, rels);
    EXPECT_EQ(bundle->causes.splitting, direct_causes.splitting);
    EXPECT_EQ(bundle->causes.aggregating, direct_causes.aggregating);
    EXPECT_EQ(bundle->causes.identified, direct_causes.identified);
    EXPECT_EQ(bundle->causes.announce_to_direct,
              direct_causes.announce_to_direct);
    EXPECT_EQ(bundle->causes.withheld_from_direct,
              direct_causes.withheld_from_direct);

    const bool is_lg = exp.sim().sim.looking_glass.contains(as);
    EXPECT_EQ(bundle->looking_glass, is_lg);
    EXPECT_EQ(bundle->import_typicality.has_value(), is_lg);
    EXPECT_EQ(bundle->sa_verification.has_value(), is_lg);
    if (is_lg) {
      const auto direct_import =
          analyze_import_typicality(view.table_for(as), rels);
      EXPECT_EQ(bundle->import_typicality->comparable_prefixes,
                direct_import.comparable_prefixes);
      EXPECT_EQ(bundle->import_typicality->typical_prefixes,
                direct_import.typical_prefixes);

      const auto direct_verify =
          verify_sa_prefixes(direct_sa, *view.paths,
                             view.community_verified_neighbors(as), rels);
      EXPECT_EQ(bundle->sa_verification->verified, direct_verify.verified);
      EXPECT_EQ(bundle->sa_verification->step1_failures,
                direct_verify.step1_failures);
      EXPECT_EQ(bundle->sa_verification->step2_failures,
                direct_verify.step2_failures);
    }
  }
}

}  // namespace
}  // namespace bgpolicy::core
