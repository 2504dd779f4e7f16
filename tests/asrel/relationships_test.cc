#include "asrel/relationships.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace bgpolicy::asrel {
namespace {

using namespace bgpolicy::testing;

TEST(InferredRelationships, KeyNormalizesOrder) {
  EXPECT_EQ(InferredRelationships::key(kAs2, kAs1),
            std::make_pair(kAs1, kAs2));
  EXPECT_EQ(InferredRelationships::key(kAs1, kAs2),
            std::make_pair(kAs1, kAs2));
}

TEST(InferredRelationships, PerspectiveInversion) {
  InferredRelationships rels;
  rels.set(kAs1, kAs2, EdgeType::kLoProviderOfHi);  // AS1 provider of AS2
  EXPECT_EQ(rels.relationship(kAs1, kAs2), RelKind::kCustomer);
  EXPECT_EQ(rels.relationship(kAs2, kAs1), RelKind::kProvider);

  rels.set(kAs3, kAs4, EdgeType::kHiProviderOfLo);  // AS4 provider of AS3
  EXPECT_EQ(rels.relationship(kAs3, kAs4), RelKind::kProvider);
  EXPECT_EQ(rels.relationship(kAs4, kAs3), RelKind::kCustomer);
}

TEST(InferredRelationships, PeersAndSiblingsAreSymmetric) {
  InferredRelationships rels;
  rels.set(kAs1, kAs2, EdgeType::kPeer);
  rels.set(kAs3, kAs4, EdgeType::kSibling);
  EXPECT_EQ(rels.relationship(kAs1, kAs2), RelKind::kPeer);
  EXPECT_EQ(rels.relationship(kAs2, kAs1), RelKind::kPeer);
  EXPECT_EQ(rels.relationship(kAs3, kAs4), RelKind::kPeer);
}

TEST(InferredRelationships, UnknownPairIsNullopt) {
  InferredRelationships rels;
  EXPECT_FALSE(rels.relationship(kAs1, kAs2));
  EXPECT_FALSE(rels.edge(kAs1, kAs2));
}

TEST(InferredRelationships, SetOverwrites) {
  InferredRelationships rels;
  rels.set(kAs1, kAs2, EdgeType::kPeer);
  rels.set(kAs2, kAs1, EdgeType::kLoProviderOfHi);
  EXPECT_EQ(rels.edge_count(), 1u);
  EXPECT_EQ(rels.relationship(kAs1, kAs2), RelKind::kCustomer);
}

TEST(InferredRelationships, AccuracyAgainstTruth) {
  const auto g = figure1_graph();
  InferredRelationships rels;
  rels.set(kAs2, kAs4, EdgeType::kLoProviderOfHi);  // correct
  rels.set(kAs3, kAs4, EdgeType::kPeer);            // correct
  rels.set(kAs5, kAs2, EdgeType::kPeer);            // wrong (p2c in truth)
  rels.set(util::AsNumber(98), util::AsNumber(99),
           EdgeType::kPeer);  // not in truth graph: skipped
  EXPECT_NEAR(rels.accuracy_against(g), 2.0 / 3.0, 1e-9);
}

TEST(InferredRelationships, CoverageCountsEveryTrueLinkByType) {
  // Fig. 1's graph: p2c 5>1, 5>2, 6>2, 6>3, 2>4; p2p 5-6, 3-4, 1-2.
  const auto g = figure1_graph();
  InferredRelationships rels;
  rels.set(kAs5, kAs1, EdgeType::kHiProviderOfLo);
  rels.set(kAs5, kAs2, EdgeType::kHiProviderOfLo);
  rels.set(kAs6, kAs2, EdgeType::kHiProviderOfLo);
  rels.set(kAs6, kAs3, EdgeType::kPeer);  // misinferred p2c link
  rels.set(kAs2, kAs4, EdgeType::kLoProviderOfHi);
  rels.set(kAs5, kAs6, EdgeType::kPeer);
  rels.set(kAs3, kAs4, EdgeType::kSibling);  // a sibling reads as a peer
  // 1-2 is the unobserved peer link.
  rels.set(util::AsNumber(98), util::AsNumber(99),
           EdgeType::kPeer);  // not in truth graph: not counted

  const RelationshipCoverage coverage = rels.coverage_against(g);
  EXPECT_EQ(coverage.provider_customer.links, 5u);
  EXPECT_EQ(coverage.provider_customer.observed, 5u);
  EXPECT_EQ(coverage.provider_customer.correct, 4u);
  EXPECT_EQ(coverage.peer.links, 3u);
  EXPECT_EQ(coverage.peer.observed, 2u);
  EXPECT_EQ(coverage.peer.correct, 2u);
  // accuracy_against scores the same classifications without the link
  // inference never saw: 6 of 7 comparable pairs.
  EXPECT_NEAR(rels.accuracy_against(g), 6.0 / 7.0, 1e-9);
}

TEST(InferredRelationships, ToGraphRoundTrip) {
  InferredRelationships rels;
  rels.set(kAs1, kAs2, EdgeType::kLoProviderOfHi);
  rels.set(kAs2, kAs3, EdgeType::kPeer);
  rels.set(kAs3, kAs4, EdgeType::kSibling);
  const topo::AsGraph g = rels.to_graph();
  EXPECT_EQ(g.as_count(), 4u);
  EXPECT_EQ(g.relationship(kAs1, kAs2), RelKind::kCustomer);
  EXPECT_EQ(g.relationship(kAs2, kAs3), RelKind::kPeer);
  EXPECT_EQ(g.relationship(kAs3, kAs4), RelKind::kPeer);  // sibling -> peer
}

}  // namespace
}  // namespace bgpolicy::asrel
