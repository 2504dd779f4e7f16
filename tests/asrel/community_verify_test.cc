#include "asrel/community_verify.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::asrel {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

// Builds a looking-glass table for vantage AS 500 in the style of the
// Appendix: a provider announcing a full table, two peers announcing
// mid-sized tables, customers announcing 1-2 prefixes, each tagged per a
// Table 11-like scheme (peer 1000, provider 2000, customer 4000).
bgp::BgpTable make_tagged_table() {
  bgp::BgpTable table{AsNumber(500)};
  const auto add = [&](std::uint32_t index, AsNumber neighbor,
                       std::uint16_t tag) {
    bgp::Route route = make_route(Prefix(0x0A000000 + (index << 8), 24),
                                  {neighbor, AsNumber(9000 + index)});
    route.add_community(bgp::Community(500, tag));
    table.add(route);
  };
  std::uint32_t index = 0;
  // Provider 600: 200 prefixes tagged 2000.
  for (int i = 0; i < 200; ++i) add(index++, AsNumber(600), 2000);
  // Peers 601, 602: 60 and 40 prefixes tagged 1000/1010.
  for (int i = 0; i < 60; ++i) add(index++, AsNumber(601), 1000);
  for (int i = 0; i < 40; ++i) add(index++, AsNumber(602), 1010);
  // Customers 603-605: 1-2 prefixes tagged 4000.
  add(index++, AsNumber(603), 4000);
  add(index++, AsNumber(604), 4000);
  add(index++, AsNumber(605), 4000);
  add(index++, AsNumber(605), 4000);
  return table;
}

InferredRelationships matching_inference() {
  InferredRelationships rels;
  rels.set(AsNumber(500), AsNumber(600), EdgeType::kHiProviderOfLo);  // 600 provider
  rels.set(AsNumber(500), AsNumber(601), EdgeType::kPeer);
  rels.set(AsNumber(500), AsNumber(602), EdgeType::kPeer);
  rels.set(AsNumber(500), AsNumber(603), EdgeType::kLoProviderOfHi);
  rels.set(AsNumber(500), AsNumber(604), EdgeType::kLoProviderOfHi);
  rels.set(AsNumber(500), AsNumber(605), EdgeType::kLoProviderOfHi);
  return rels;
}

TEST(CommunityVerify, PublishedSemanticsVerifyEverything) {
  const auto table = make_tagged_table();
  const auto inferred = matching_inference();
  std::unordered_map<std::uint16_t, RelKind> semantics{
      {1000, RelKind::kPeer},     {1010, RelKind::kPeer},
      {2000, RelKind::kProvider}, {4000, RelKind::kCustomer}};
  CommunityVerifyParams params;
  params.has_providers = true;
  const auto result =
      verify_with_communities(table, semantics, inferred, params);
  EXPECT_EQ(result.neighbor_count, 6u);
  EXPECT_EQ(result.comparable, 6u);
  EXPECT_EQ(result.agree, 6u);
  EXPECT_DOUBLE_EQ(result.percent_verified, 100.0);
}

TEST(CommunityVerify, GapHeuristicRecoversSemantics) {
  const auto table = make_tagged_table();
  const auto inferred = matching_inference();
  CommunityVerifyParams params;
  params.has_providers = true;
  const auto result =
      verify_with_communities(table, std::nullopt, inferred, params);
  EXPECT_EQ(result.comparable, 6u);
  EXPECT_EQ(result.agree, 6u) << "gap heuristic misread the value scheme";
}

TEST(CommunityVerify, DisagreementsAreCounted) {
  const auto table = make_tagged_table();
  auto inferred = matching_inference();
  // Flip one inferred relationship: peer 602 recorded as customer.
  inferred.set(AsNumber(500), AsNumber(602), EdgeType::kLoProviderOfHi);
  std::unordered_map<std::uint16_t, RelKind> semantics{
      {1000, RelKind::kPeer},     {1010, RelKind::kPeer},
      {2000, RelKind::kProvider}, {4000, RelKind::kCustomer}};
  CommunityVerifyParams params;
  params.has_providers = true;
  const auto result =
      verify_with_communities(table, semantics, inferred, params);
  EXPECT_EQ(result.comparable, 6u);
  EXPECT_EQ(result.agree, 5u);
  EXPECT_NEAR(result.percent_verified, 83.33, 0.1);
}

TEST(CommunityVerify, RankSeriesIsNonIncreasing) {
  const auto table = make_tagged_table();
  const auto result = verify_with_communities(table, std::nullopt,
                                              matching_inference(), {});
  ASSERT_EQ(result.rank_series.values.size(), 6u);
  for (std::size_t i = 1; i < result.rank_series.values.size(); ++i) {
    EXPECT_GE(result.rank_series.values[i - 1], result.rank_series.values[i]);
  }
  EXPECT_EQ(result.rank_series.values.front(), 200u);
}

TEST(CommunityVerify, UntaggedTableVerifiesNothing) {
  bgp::BgpTable table{AsNumber(500)};
  table.add(make_route(Prefix::parse("10.0.0.0/24"),
                       {AsNumber(600), AsNumber(700)}));
  const auto result = verify_with_communities(table, std::nullopt,
                                              matching_inference(), {});
  EXPECT_EQ(result.comparable, 0u);
  EXPECT_EQ(result.percent_verified, 0.0);
}

// End-to-end: the paper's Table 4 shape — most vantage relationships verify.
class PipelineVerification : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PipelineVerification, VerifiesMostNeighbors) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const AsNumber vantage{GetParam()};
  if (!exp.sim().sim.looking_glass.contains(vantage)) GTEST_SKIP();
  const auto result = view.community_verification(vantage);
  ASSERT_GT(result.comparable, 0u);
  EXPECT_GT(result.percent_verified, 85.0)
      << util::to_string(vantage) << " verified too little";
}

INSTANTIATE_TEST_SUITE_P(Vantages, PipelineVerification,
                         ::testing::Values(1, 3549, 7018, 5511, 12859));

}  // namespace
}  // namespace bgpolicy::asrel
