#include "core/causes.h"

#include <gtest/gtest.h>

#include "core/export_inference.h"
#include "sim/simulation.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

// Fig. 3 world where A owns 10.0.0.0/23 and splits out 10.0.0.0/24:
// the covering /23 is announced to both providers, the /24 only to C.
TEST(Causes, SplittingDetected) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  const Prefix covering = Prefix::parse("10.0.0.0/23");
  const Prefix specific = Prefix::parse("10.0.0.0/24");
  sim::ExportRule rule;
  rule.prefix = specific;
  rule.action = sim::ExportAction::kDeny;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

  sim::VantageSpec spec;
  spec.best_only = {fig.d};
  const std::vector<sim::Origination> originations{{covering, fig.a},
                                                   {specific, fig.a}};
  auto sim = sim::run_simulation(fig.graph, policies, originations, spec);
  const auto& table = sim.best_only.at(fig.d);

  const auto analysis =
      infer_sa_prefixes(table, fig.d, fig.graph, oracle_from(fig.graph));
  ASSERT_EQ(analysis.sa_count, 1u);
  EXPECT_EQ(analysis.sa_prefixes.front().prefix, specific);

  PathIndex paths;
  paths.add_table(table);
  const auto causes = analyze_causes(analysis, table, paths, fig.graph,
                                     oracle_from(fig.graph));
  EXPECT_EQ(causes.splitting, 1u);
  EXPECT_EQ(causes.aggregating, 0u);
}

// Aggregation: A's prefix lives inside B's block; B absorbs it (never
// re-exports), so D sees it only via the peer E, covered by B's block route.
TEST(Causes, AggregationDetected) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  const Prefix block = Prefix::parse("12.0.0.0/16");
  const Prefix assigned = Prefix::parse("12.0.128.0/24");
  sim::ExportRule absorb;
  absorb.prefix = assigned;
  absorb.action = sim::ExportAction::kDeny;
  policies.at_mut(fig.b).export_.add_rule_any(absorb);

  sim::VantageSpec spec;
  spec.best_only = {fig.d};
  const std::vector<sim::Origination> originations{{block, fig.b},
                                                   {assigned, fig.a}};
  auto sim = sim::run_simulation(fig.graph, policies, originations, spec);
  const auto& table = sim.best_only.at(fig.d);

  const auto analysis =
      infer_sa_prefixes(table, fig.d, fig.graph, oracle_from(fig.graph));
  ASSERT_EQ(analysis.sa_count, 1u);

  PathIndex paths;
  paths.add_table(table);
  const auto causes = analyze_causes(analysis, table, paths, fig.graph,
                                     oracle_from(fig.graph));
  EXPECT_EQ(causes.aggregating, 1u);
  EXPECT_EQ(causes.splitting, 0u);
}

// Case 3 classification: plain withholding => "withheld from direct
// provider"; community-capped => "announced to direct provider".
TEST(Causes, Case3DistinguishesWithheldFromCapped) {
  for (const bool via_community : {false, true}) {
    Figure3 fig = figure3_graph();
    auto policies = typical_policies(fig.graph);
    const Prefix prefix = Prefix::parse("10.0.0.0/24");
    sim::ExportRule rule;
    rule.prefix = prefix;
    rule.action = via_community ? sim::ExportAction::kTagNoExportUpstream
                                : sim::ExportAction::kDeny;
    policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

    sim::VantageSpec spec;
    spec.best_only = {fig.d};
    // B contributes its table to the collector, exposing the "B A"
    // adjacency when A announced to B (the paper's Oregon-based method).
    spec.collector_peers = {fig.b, fig.d};
    const std::vector<sim::Origination> originations{{prefix, fig.a}};
    auto sim = sim::run_simulation(fig.graph, policies, originations, spec);
    const auto& table = sim.best_only.at(fig.d);

    const auto analysis =
        infer_sa_prefixes(table, fig.d, fig.graph, oracle_from(fig.graph));
    ASSERT_EQ(analysis.sa_count, 1u) << "via_community=" << via_community;

    PathIndex paths;
    paths.add_table(sim.collector);
    const auto causes = analyze_causes(analysis, table, paths, fig.graph,
                                       oracle_from(fig.graph));
    ASSERT_EQ(causes.identified, 1u) << "via_community=" << via_community;
    if (via_community) {
      // B received the (tagged) announcement, so the B<-A adjacency is
      // observable in B's looking glass: the customer DID announce.
      EXPECT_EQ(causes.announce_to_direct, 1u);
      EXPECT_EQ(causes.withheld_from_direct, 0u);
    } else {
      EXPECT_EQ(causes.announce_to_direct, 0u);
      EXPECT_EQ(causes.withheld_from_direct, 1u);
    }
  }
}

// Table 9 shape at scale: splitting and aggregating are rare among SA
// prefixes; Case 3 dominates and mostly shows plain withholding.
TEST(Causes, PipelineTable9Shape) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const AsNumber provider{1};
  const auto analysis =
      infer_sa_prefixes(view.table_for(provider), provider,
                        *view.inferred_graph, view.inferred_oracle());
  ASSERT_GT(analysis.sa_count, 5u);
  const auto causes =
      analyze_causes(analysis, view.table_for(provider), *view.paths,
                     *view.inferred_graph, view.inferred_oracle());
  EXPECT_LT(causes.splitting, analysis.sa_count / 2)
      << "splitting should not be the main cause (paper Table 9)";
  EXPECT_LT(causes.aggregating, analysis.sa_count)
      << "aggregation is an upper-bound estimate but not everything";
  EXPECT_GT(causes.identified, 0u);
  EXPECT_GT(causes.withheld_from_direct, 0u)
      << "plain selective announcing must appear (paper: ~79%)";
}

}  // namespace
}  // namespace bgpolicy::core
