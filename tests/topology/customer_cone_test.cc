#include "topology/customer_cone.h"

#include <gtest/gtest.h>

#include "testing/customer_cone_reference.h"
#include "testing/experiment_cache.h"
#include "testing/fixtures.h"

namespace bgpolicy::topo {
namespace {

using namespace bgpolicy::testing;

/// Checks every (provider, AS) pair of `graph` against the per-query DFS
/// `testing::in_customer_cone`, plus `outsider`, an AS the graph lacks.
void expect_matches_reference(const AsGraph& graph, AsNumber outsider) {
  for (const AsNumber provider : graph.ases()) {
    const CustomerCone cone(graph, provider);
    std::size_t members = 0;
    for (const AsNumber as : graph.ases()) {
      const bool want = in_customer_cone(graph, provider, as);
      EXPECT_EQ(cone.contains(as), want)
          << "provider " << provider.value() << ", AS " << as.value();
      if (want) ++members;
    }
    EXPECT_EQ(cone.size(), members) << "provider " << provider.value();
    EXPECT_FALSE(cone.contains(outsider));
  }
}

TEST(CustomerCone, MatchesReferenceOnInferredGraph) {
  const AsGraph& inferred = shared_experiment(7).inference().inferred_graph;
  ASSERT_GT(inferred.as_count(), 100u);
  expect_matches_reference(inferred, AsNumber(4'000'000'000));
}

TEST(CustomerCone, ProviderOnACustomerCycleIsNotItsOwnMember) {
  // 1 -> 2 -> 3 -> 1 is a provider-to-customer cycle through AS1; 3 -> 4
  // hangs below it, and AS5 is only AS2's peer.
  AsGraph g;
  for (const auto as : {kAs1, kAs2, kAs3, kAs4, kAs5}) g.add_as(as);
  g.add_provider_customer(kAs1, kAs2);
  g.add_provider_customer(kAs2, kAs3);
  g.add_provider_customer(kAs3, kAs1);
  g.add_provider_customer(kAs3, kAs4);
  g.add_peer_peer(kAs2, kAs5);

  const CustomerCone cone(g, kAs1);
  EXPECT_FALSE(cone.contains(kAs1));
  EXPECT_TRUE(cone.contains(kAs2));
  EXPECT_TRUE(cone.contains(kAs3));
  EXPECT_TRUE(cone.contains(kAs4));
  EXPECT_FALSE(cone.contains(kAs5));
  EXPECT_EQ(cone.size(), 3u);
  expect_matches_reference(g, kAs6);
}

TEST(CustomerCone, ProviderMissingFromTheGraphHasAnEmptyCone) {
  const AsGraph g = figure1_graph();
  const CustomerCone cone(g, AsNumber(99));
  EXPECT_EQ(cone.size(), 0u);
  for (const AsNumber as : g.ases()) {
    EXPECT_FALSE(cone.contains(as));
    EXPECT_FALSE(in_customer_cone(g, AsNumber(99), as));
  }
}

}  // namespace
}  // namespace bgpolicy::topo
