#include "core/persistence.h"

#include <gtest/gtest.h>

#include "sim/policy_gen.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

TEST(Persistence, Fig3SingleUnitOscillation) {
  // One toggleable unit flipped every step: the SA count at D alternates.
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  const Prefix prefix = Prefix::parse("10.0.0.0/24");
  sim::ExportRule rule;
  rule.prefix = prefix;
  rule.action = sim::ExportAction::kDeny;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

  sim::GroundTruth truth;
  truth.origin_units.push_back({fig.a, prefix, fig.b, true, false});
  sim::ChurnParams churn_params;
  churn_params.flip_fraction = 1.0;
  sim::ChurnSimulator churn(fig.graph, policies, {{prefix, fig.a}},
                            std::move(truth), {fig.d}, churn_params);

  const auto study = run_persistence_study(churn, fig.d, fig.graph,
                                           oracle_from(fig.graph), 4);
  ASSERT_EQ(study.series.size(), 4u);
  EXPECT_EQ(study.series[0].sa_prefixes, 1u);
  EXPECT_EQ(study.series[1].sa_prefixes, 0u);
  EXPECT_EQ(study.series[2].sa_prefixes, 1u);
  EXPECT_EQ(study.series[3].sa_prefixes, 0u);
  // The prefix was present all 4 steps but SA only half the time: shifted.
  EXPECT_EQ(study.ever_sa, 1u);
  EXPECT_EQ(study.shifted_total, 1u);
  ASSERT_EQ(study.uptime_histogram.size(), 1u);
  EXPECT_EQ(study.uptime_histogram.front().uptime, 4u);
  EXPECT_EQ(study.uptime_histogram.front().shifted, 1u);
  EXPECT_EQ(study.uptime_histogram.front().remaining_sa, 0u);
}

TEST(Persistence, StableSaPrefixRemains) {
  // No flips: the SA prefix stays SA every step.
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  const Prefix prefix = Prefix::parse("10.0.0.0/24");
  sim::ExportRule rule;
  rule.prefix = prefix;
  rule.action = sim::ExportAction::kDeny;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

  sim::GroundTruth truth;  // no toggleable units -> step() changes nothing
  sim::ChurnSimulator churn(fig.graph, policies, {{prefix, fig.a}},
                            std::move(truth), {fig.d}, {});
  const auto study = run_persistence_study(churn, fig.d, fig.graph,
                                           oracle_from(fig.graph), 5);
  EXPECT_EQ(study.ever_sa, 1u);
  EXPECT_EQ(study.shifted_total, 0u);
  ASSERT_EQ(study.uptime_histogram.size(), 1u);
  EXPECT_EQ(study.uptime_histogram.front().remaining_sa, 1u);
  for (const auto& snap : study.series) {
    EXPECT_EQ(snap.sa_prefixes, 1u);
    EXPECT_EQ(snap.total_prefixes, 1u);
  }
}

// Fig. 6/7 shape on the shared pipeline world: SA counts stay in a stable
// band and only a minority of ever-SA prefixes shift within a "month".
TEST(Persistence, PipelineFig6Fig7Shape) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  sim::ChurnParams churn_params;
  churn_params.flip_fraction = 0.02;
  sim::ChurnSimulator churn(exp.truth().topo.graph, exp.truth().gen.policies,
                            exp.truth().originations, exp.truth().gen.truth,
                            {AsNumber(1)}, churn_params);
  const auto study = run_persistence_study(churn, AsNumber(1),
                                           *view.inferred_graph,
                                           view.inferred_oracle(), 10);
  ASSERT_EQ(study.series.size(), 10u);
  // Fig. 6 shape: SA prefixes are a persistent, roughly stable minority.
  for (const auto& snap : study.series) {
    EXPECT_GT(snap.sa_prefixes, 0u);
    EXPECT_LT(snap.sa_prefixes, snap.customer_prefixes);
  }
  const double first = static_cast<double>(study.series.front().sa_prefixes);
  const double last = static_cast<double>(study.series.back().sa_prefixes);
  EXPECT_LT(std::abs(first - last) / first, 0.6) << "SA count should be stable";
  // Fig. 7 shape: some prefixes shift, but "most of them are stable".
  EXPECT_GT(study.ever_sa, 0u);
  EXPECT_LT(study.percent_shifted, 50.0);
}

// The persistence-sharding determinism contract: churn stepping is
// sequential, the per-snapshot SA analysis shards over snapshots, and the
// study serializes byte-identically for threads ∈ {1, 4, 0}.
TEST(Persistence, ShardedSnapshotAnalysisIsThreadCountIndependent) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const auto study_at = [&](std::size_t threads) {
    sim::ChurnParams churn_params;
    churn_params.flip_fraction = 0.02;
    sim::ChurnSimulator churn(exp.truth().topo.graph, exp.truth().gen.policies,
                              exp.truth().originations, exp.truth().gen.truth,
                              {AsNumber(1)}, churn_params);
    return canonical_serialize(run_persistence_study(
        churn, AsNumber(1), *view.inferred_graph, view.inferred_oracle(), 8,
        threads));
  };
  const std::string reference = study_at(1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
    EXPECT_EQ(study_at(threads), reference)
        << "persistence study differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace bgpolicy::core
