#include "core/nexthop_consistency.h"

#include <gtest/gtest.h>

#include "sim/router_partition.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

TEST(NextHopConsistency, FullyConsistentTable) {
  bgp::BgpTable table{AsNumber(5)};
  for (std::uint32_t i = 0; i < 10; ++i) {
    table.add(make_route(Prefix(0x0A000000 + (i << 8), 24),
                         {AsNumber(10), AsNumber(900)}, 120));
    table.add(make_route(Prefix(0x0A000000 + (i << 8), 24),
                         {AsNumber(20), AsNumber(900)}, 100));
  }
  const auto result = analyze_nexthop_consistency(table);
  EXPECT_EQ(result.total_routes, 20u);
  EXPECT_EQ(result.consistent_routes, 20u);
  EXPECT_DOUBLE_EQ(result.percent_consistent, 100.0);
  EXPECT_EQ(result.modal_pref.at(AsNumber(10)), 120u);
  EXPECT_EQ(result.modal_pref.at(AsNumber(20)), 100u);
}

TEST(NextHopConsistency, PerPrefixOverridesReduceConsistency) {
  bgp::BgpTable table{AsNumber(5)};
  for (std::uint32_t i = 0; i < 10; ++i) {
    const std::uint32_t lp = i < 8 ? 120 : 66;  // 2 of 10 prefixes pinned
    table.add(make_route(Prefix(0x0A000000 + (i << 8), 24),
                         {AsNumber(10), AsNumber(900)}, lp));
  }
  const auto result = analyze_nexthop_consistency(table);
  EXPECT_EQ(result.modal_pref.at(AsNumber(10)), 120u);
  EXPECT_EQ(result.consistent_routes, 8u);
  EXPECT_DOUBLE_EQ(result.percent_consistent, 80.0);
}

TEST(NextHopConsistency, EmptyTable) {
  const bgp::BgpTable table{AsNumber(5)};
  const auto result = analyze_nexthop_consistency(table);
  EXPECT_EQ(result.total_routes, 0u);
  EXPECT_EQ(result.percent_consistent, 0.0);
}

// Fig. 2a shape: most vantages assign local preference per next-hop AS.
TEST(NextHopConsistency, PipelineFig2aShape) {
  const auto& exp = shared_experiment();
  std::size_t high = 0;
  std::size_t total = 0;
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    const auto result =
        analyze_nexthop_consistency(exp.sim().sim.looking_glass.at(vantage));
    if (result.total_routes < 50) continue;
    ++total;
    if (result.percent_consistent > 85.0) ++high;
  }
  ASSERT_GT(total, 2u);
  EXPECT_EQ(high, total) << "every vantage should be next-hop keyed";
}

// Fig. 2b shape: per-router views of one AS stay mostly consistent, with
// deviant routers dipping.
TEST(NextHopConsistency, PipelineFig2bShape) {
  const auto& exp = shared_experiment();
  const AsNumber att{7018};
  ASSERT_TRUE(exp.sim().sim.looking_glass.contains(att));
  sim::RouterPartitionParams params;
  params.router_count = 30;
  const auto views =
      sim::partition_routers(exp.sim().sim.looking_glass.at(att), params);
  ASSERT_EQ(views.size(), 30u);
  std::size_t populated = 0;
  std::size_t consistent_routers = 0;
  for (const auto& view : views) {
    if (view.table.route_count() < 10) continue;
    ++populated;
    const auto result = analyze_nexthop_consistency(view.table);
    if (result.percent_consistent > 60.0) ++consistent_routers;
  }
  ASSERT_GT(populated, 5u);
  EXPECT_GT(util::percent(consistent_routers, populated), 80.0);
}

}  // namespace
}  // namespace bgpolicy::core
