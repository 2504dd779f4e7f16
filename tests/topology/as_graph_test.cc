#include "topology/as_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/customer_cone_reference.h"
#include "testing/fixtures.h"
#include "topology/customer_cone.h"

namespace bgpolicy::topo {
namespace {

using namespace bgpolicy::testing;

TEST(AsGraph, AddAsIsIdempotent) {
  AsGraph g;
  g.add_as(kAs1);
  g.add_as(kAs1);
  EXPECT_EQ(g.as_count(), 1u);
}

TEST(AsGraph, EdgePreconditions) {
  AsGraph g;
  g.add_as(kAs1);
  g.add_as(kAs2);
  EXPECT_THROW(g.add_provider_customer(kAs1, kAs1), std::invalid_argument);
  EXPECT_THROW(g.add_provider_customer(kAs1, kAs3), std::invalid_argument);
  g.add_provider_customer(kAs1, kAs2);
  EXPECT_THROW(g.add_peer_peer(kAs1, kAs2), std::invalid_argument);
}

TEST(AsGraph, RelationshipPerspectives) {
  const AsGraph g = figure1_graph();
  // Fig. 1 caption: AS2 is the provider of AS4, AS4 is a customer of AS2,
  // AS3 peers with AS4.
  EXPECT_EQ(g.relationship(kAs2, kAs4), RelKind::kCustomer);
  EXPECT_EQ(g.relationship(kAs4, kAs2), RelKind::kProvider);
  EXPECT_EQ(g.relationship(kAs3, kAs4), RelKind::kPeer);
  EXPECT_EQ(g.relationship(kAs4, kAs3), RelKind::kPeer);
  EXPECT_FALSE(g.relationship(kAs1, kAs4));
}

TEST(AsGraph, NeighborFilters) {
  const AsGraph g = figure1_graph();
  const auto customers = g.customers(kAs2);
  EXPECT_NE(std::find(customers.begin(), customers.end(), kAs4),
            customers.end());
  const auto providers = g.providers(kAs4);
  EXPECT_EQ(providers, std::vector<util::AsNumber>{kAs2});
  const auto peers = g.peers(kAs4);
  EXPECT_EQ(peers, std::vector<util::AsNumber>{kAs3});
}

TEST(AsGraph, DegreeCountsAllNeighbors) {
  const AsGraph g = figure1_graph();
  EXPECT_EQ(g.degree(kAs2), 4u);  // AS5, AS6 providers; AS4 customer; AS1 peer
  EXPECT_EQ(g.degree(kAs4), 2u);
}

TEST(AsGraph, CustomerConeFollowsOnlyP2CEdges) {
  const AsGraph g = figure1_graph();
  // AS5's cone: AS1, AS2 direct; AS4 via AS2.  AS3 is reachable only
  // through AS6 or the AS3-AS4 peer edge, so it is not in the cone.
  EXPECT_TRUE(in_customer_cone(g, kAs5, kAs1));
  EXPECT_TRUE(in_customer_cone(g, kAs5, kAs2));
  EXPECT_TRUE(in_customer_cone(g, kAs5, kAs4));
  EXPECT_FALSE(in_customer_cone(g, kAs5, kAs3));
  EXPECT_FALSE(in_customer_cone(g, kAs5, kAs5));
  EXPECT_FALSE(in_customer_cone(g, kAs4, kAs5));

  EXPECT_EQ(CustomerCone(g, kAs5).size(), 3u);
}

TEST(AsGraph, ValleyFreeAcceptsLegalShapes) {
  const AsGraph g = figure1_graph();
  using util::AsNumber;
  // Pure downhill (observer at top): 5 -> 2 -> 4.
  EXPECT_TRUE(g.is_valley_free(std::vector<AsNumber>{kAs5, kAs2, kAs4}));
  // Uphill then peer then downhill: 4 up to 2? No — read observer->origin:
  // path "1 2 4": AS1 peers AS2, AS2 provider of AS4: a route from AS4
  // climbing to AS2 then crossing the peer edge to AS1.
  EXPECT_TRUE(g.is_valley_free(std::vector<AsNumber>{kAs1, kAs2, kAs4}));
  // Peer at the top: 5 -> 6 across the peering, then down to 3.
  EXPECT_TRUE(g.is_valley_free(std::vector<AsNumber>{kAs5, kAs6, kAs3}));
}

TEST(AsGraph, ValleyFreeRejectsValleys) {
  const AsGraph g = figure1_graph();
  using util::AsNumber;
  // "2 5 6": AS2 would be receiving a route its provider AS5 learned from a
  // peer — legal.  The valley is "5 2 1"? AS2 announcing a peer route (from
  // AS1) up to AS5 — illegal.
  EXPECT_TRUE(g.is_valley_free(std::vector<AsNumber>{kAs2, kAs5, kAs6}));
  EXPECT_FALSE(g.is_valley_free(std::vector<AsNumber>{kAs5, kAs2, kAs1}));
  // Two peer crossings: 3 - 4 ... 1 - 2: "1 2 4 3" has peer 1-2 then down
  // 2-4 then peer 4-3 read from the right: up?? — origin AS3 announces to
  // peer AS4 (peer hop), AS4 announces peer route to provider AS2 — illegal.
  EXPECT_FALSE(g.is_valley_free(std::vector<AsNumber>{kAs1, kAs2, kAs4, kAs3}));
  // Unannotated adjacency.
  EXPECT_FALSE(g.is_valley_free(std::vector<AsNumber>{kAs1, kAs4}));
}

TEST(AsGraph, ValleyFreeTrivialPaths) {
  const AsGraph g = figure1_graph();
  EXPECT_TRUE(g.is_valley_free(std::vector<util::AsNumber>{}));
  EXPECT_TRUE(g.is_valley_free(std::vector<util::AsNumber>{kAs1}));
}

}  // namespace
}  // namespace bgpolicy::topo
