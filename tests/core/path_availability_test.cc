#include "core/path_availability.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");
const Prefix kOther = Prefix::parse("10.0.1.0/24");

// Fig. 3 world: D has two neighbors that could serve A's prefixes
// (customer B and peer E — E's cone contains A via C).
TEST(PathAvailability, FullAnnouncementUsesAllPotential) {
  Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  sim::VantageSpec spec;
  spec.looking_glass = {fig.d};
  const std::vector<sim::Origination> originations{{kPrefix, fig.a},
                                                   {kOther, fig.a}};
  auto sim = sim::run_simulation(fig.graph, policies, originations, spec);
  const auto result = analyze_path_availability(
      sim.looking_glass.at(fig.d), fig.d, fig.graph);
  EXPECT_EQ(result.customer_prefixes, 2u);
  // Potential: customer B + peer E = 2; both actually offer.
  EXPECT_DOUBLE_EQ(result.mean_potential, 2.0);
  EXPECT_DOUBLE_EQ(result.mean_available, 2.0);
  EXPECT_DOUBLE_EQ(result.availability_ratio, 1.0);
  EXPECT_EQ(result.single_path_prefixes, 0u);
}

TEST(PathAvailability, SelectiveAnnouncementShrinksAvailability) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  sim::ExportRule rule;
  rule.prefix = kPrefix;
  rule.action = sim::ExportAction::kDeny;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

  sim::VantageSpec spec;
  spec.looking_glass = {fig.d};
  const std::vector<sim::Origination> originations{{kPrefix, fig.a},
                                                   {kOther, fig.a}};
  auto sim = sim::run_simulation(fig.graph, policies, originations, spec);
  const auto result = analyze_path_availability(
      sim.looking_glass.at(fig.d), fig.d, fig.graph);
  EXPECT_EQ(result.customer_prefixes, 2u);
  // kPrefix lost the customer route: 1 available vs 2 potential.
  EXPECT_DOUBLE_EQ(result.mean_available, 1.5);
  EXPECT_DOUBLE_EQ(result.mean_potential, 2.0);
  EXPECT_LT(result.availability_ratio, 1.0);
  EXPECT_EQ(result.single_path_prefixes, 1u);
  EXPECT_EQ(result.available_histogram.at(1), 1u);
  EXPECT_EQ(result.available_histogram.at(2), 1u);
}

TEST(PathAvailability, EmptyTable) {
  const bgp::BgpTable empty{AsNumber(40)};
  topo::AsGraph g;
  g.add_as(AsNumber(40));
  const auto result = analyze_path_availability(empty, AsNumber(40), g);
  EXPECT_EQ(result.customer_prefixes, 0u);
  EXPECT_EQ(result.availability_ratio, 0.0);
}

// Pipeline shape: the paper's claim — policy removes a visible share of
// the paths the connectivity graph promises.
TEST(PathAvailability, PipelineShowsAvailabilityGap) {
  const auto& exp = shared_experiment();
  for (const auto as_value : Scenario::focus_tier1()) {
    const AsNumber vantage{as_value};
    if (!exp.sim().sim.looking_glass.contains(vantage)) continue;
    const auto result = analyze_path_availability(
        exp.sim().sim.looking_glass.at(vantage), vantage,
        exp.inference().inferred_graph);
    ASSERT_GT(result.customer_prefixes, 50u);
    EXPECT_GT(result.mean_potential, result.mean_available)
        << util::to_string(vantage)
        << ": connectivity should promise more than policy delivers";
    EXPECT_LT(result.availability_ratio, 1.0);
    EXPECT_GT(result.availability_ratio, 0.2)
        << "sanity: most potential should still be usable";
  }
}

}  // namespace
}  // namespace bgpolicy::core
