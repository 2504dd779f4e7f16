#include "sim/simulation.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;

const Prefix kP1 = Prefix::parse("10.0.0.0/24");
const Prefix kP2 = Prefix::parse("10.0.1.0/24");

TEST(Simulation, CollectorRecordsOneRoutePerPeer) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  VantageSpec spec;
  spec.collector_peers = {kAs5, kAs6};
  const std::vector<Origination> originations{{kP1, kAs4}, {kP2, kAs3}};
  const SimResult result = run_simulation(g, policies, originations, spec);

  EXPECT_EQ(result.origination_count, 2u);
  EXPECT_EQ(result.unconverged_prefixes, 0u);
  EXPECT_EQ(result.collector.owner(), spec.collector_as);
  EXPECT_EQ(result.collector.routes(kP1).size(), 2u);
  for (const bgp::RouteView route : result.collector.routes(kP1)) {
    // Collector paths start at the contributing peer and keep its
    // LOCAL_PREF invisible (reset to 100).
    EXPECT_EQ(route.path().next_hop_as(), route.learned_from());
    EXPECT_EQ(route.local_pref(), 100u);
    EXPECT_EQ(route.origin_as(), kAs4);
  }
}

TEST(Simulation, LookingGlassRecordsFullAdjRibIn) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  VantageSpec spec;
  spec.looking_glass = {kAs2};
  const std::vector<Origination> originations{{kP1, kAs4}};
  const SimResult result = run_simulation(g, policies, originations, spec);

  const auto& lg = result.looking_glass.at(kAs2);
  // AS2 hears AS4's prefix from customer AS4 directly; AS5/AS6 (providers)
  // also propagate it back down; AS1 (peer) has only a peer route to it
  // and must not export it to AS2.
  const auto routes = lg.routes(kP1);
  bool from_4 = false, from_1 = false;
  for (const bgp::RouteView route : routes) {
    if (route.learned_from() == kAs4) from_4 = true;
    if (route.learned_from() == kAs1) from_1 = true;
  }
  EXPECT_TRUE(from_4);
  EXPECT_FALSE(from_1);
  // Local preference reflects AS2's import policy (customer band for AS4).
  const std::optional<bgp::RouteView> best = lg.best(kP1);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->learned_from(), kAs4);
  EXPECT_EQ(best->local_pref(), policies.at(kAs2).import.customer_pref);
}

TEST(Simulation, BestOnlyTablesHoldSingleRoutes) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  VantageSpec spec;
  spec.best_only = {kAs5};
  const std::vector<Origination> originations{{kP1, kAs4}, {kP2, kAs3}};
  const SimResult result = run_simulation(g, policies, originations, spec);

  const auto& table = result.best_only.at(kAs5);
  EXPECT_EQ(table.routes(kP1).size(), 1u);
  EXPECT_EQ(table.routes(kP2).size(), 1u);
}

TEST(Simulation, LookingGlassBestAgreesWithEngine) {
  // The recorded Adj-RIB-In, reduced by the decision process, must select
  // the same best route the propagation engine converged on.
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  VantageSpec spec;
  spec.looking_glass = {kAs5};
  spec.best_only = {kAs5};
  const std::vector<Origination> originations{{kP1, kAs4}, {kP2, kAs3}};
  const SimResult result = run_simulation(g, policies, originations, spec);

  for (const auto& prefix : {kP1, kP2}) {
    const auto lg_best = result.looking_glass.at(kAs5).best(prefix);
    const auto engine_best = result.best_only.at(kAs5).best(prefix);
    ASSERT_TRUE(lg_best);
    ASSERT_TRUE(engine_best);
    EXPECT_EQ(lg_best->learned_from(), engine_best->learned_from());
    EXPECT_EQ(lg_best->to_route().path, engine_best->to_route().path);
  }
}

}  // namespace
}  // namespace bgpolicy::sim
