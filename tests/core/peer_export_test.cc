#include "core/peer_export.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

TEST(PeerExport, DirectAnnouncementsCounted) {
  bgp::BgpTable table{AsNumber(1)};
  // Peer 20: both own prefixes arrive directly (path [20]).
  table.add(make_route(Prefix::parse("10.0.0.0/24"), {AsNumber(20)}));
  table.add(make_route(Prefix::parse("10.0.1.0/24"), {AsNumber(20)}));
  // Peer 30: one prefix arrives via a third party.
  table.add(make_route(Prefix::parse("10.1.0.0/24"), {AsNumber(30)}));
  table.add(
      make_route(Prefix::parse("10.1.1.0/24"), {AsNumber(20), AsNumber(30)}));

  const auto result = analyze_peer_export(table, AsNumber(1),
                                          {AsNumber(20), AsNumber(30)});
  EXPECT_EQ(result.peer_count, 2u);
  EXPECT_EQ(result.announcing_all, 1u);
  EXPECT_DOUBLE_EQ(result.percent_announcing, 50.0);
  for (const auto& row : result.rows) {
    if (row.peer == AsNumber(20)) {
      EXPECT_TRUE(row.announces_all);
      EXPECT_EQ(row.own_prefixes, 2u);
      EXPECT_EQ(row.direct, 2u);
    } else {
      EXPECT_FALSE(row.announces_all);
      EXPECT_EQ(row.own_prefixes, 2u);
      EXPECT_EQ(row.direct, 1u);
    }
  }
}

TEST(PeerExport, AnnouncingMostThreshold) {
  bgp::BgpTable table{AsNumber(1)};
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Prefix p(0x0A000000 + (i << 8), 24);
    if (i < 9) {
      table.add(make_route(p, {AsNumber(20)}));
    } else {
      table.add(make_route(p, {AsNumber(30), AsNumber(20)}));
    }
  }
  const auto result = analyze_peer_export(table, AsNumber(1), {AsNumber(20)});
  EXPECT_EQ(result.announcing_all, 0u);
  EXPECT_EQ(result.announcing_most, 1u) << "9 of 10 direct is 'most'";
}

TEST(PeerExport, SilentPeerIsNotAnnouncing) {
  bgp::BgpTable table{AsNumber(1)};
  const auto result = analyze_peer_export(table, AsNumber(1), {AsNumber(20)});
  EXPECT_EQ(result.peer_count, 1u);
  EXPECT_EQ(result.announcing_all, 0u);
}

// Table 10 shape: most peers of the focus Tier-1s announce their own
// prefixes directly (86-100% in the paper).
class PipelinePeerExport : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PipelinePeerExport, MostPeersAnnounceDirectly) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const AsNumber provider{GetParam()};
  const auto peers = view.inferred_graph->peers(provider);
  ASSERT_FALSE(peers.empty());
  const auto result =
      analyze_peer_export(view.table_for(provider), provider, peers);
  EXPECT_GT(result.percent_announcing, 60.0) << util::to_string(provider);
  EXPECT_GE(result.announcing_most, result.announcing_all);
}

INSTANTIATE_TEST_SUITE_P(FocusTier1, PipelinePeerExport,
                         ::testing::Values(1, 3549, 7018));

}  // namespace
}  // namespace bgpolicy::core
