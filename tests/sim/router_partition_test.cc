#include "sim/router_partition.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;

bgp::BgpTable make_lg_table() {
  bgp::BgpTable table{kAs1};
  for (std::uint32_t i = 0; i < 64; ++i) {
    const Prefix prefix(0x0A000000 + (i << 8), 24);
    for (std::uint32_t n = 0; n < 4; ++n) {
      table.add(make_route(prefix, {util::AsNumber(100 + n)}, 100 + 10 * n));
    }
  }
  return table;
}

TEST(RouterPartition, EveryRouteLandsOnExactlyOneRouter) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 8;
  const auto views = partition_routers(lg, params);
  ASSERT_EQ(views.size(), 8u);
  std::size_t total = 0;
  for (const auto& view : views) total += view.table.route_count();
  EXPECT_EQ(total, lg.route_count());
}

TEST(RouterPartition, NeighborsStickToOneRouter) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 8;
  const auto views = partition_routers(lg, params);
  // Each neighbor AS appears in exactly one router view.
  std::unordered_map<util::AsNumber, std::size_t> owner;
  for (std::size_t r = 0; r < views.size(); ++r) {
    for (const bgp::TableEntry entry : views[r].table) {
      for (const bgp::RouteView route : entry) {
        const auto [it, inserted] = owner.emplace(route.learned_from(), r);
        EXPECT_EQ(it->second, r) << util::to_string(route.learned_from())
                                 << " split across routers";
      }
    }
  }
  EXPECT_EQ(owner.size(), 4u);
}

TEST(RouterPartition, ZeroDeviationPreservesPreferences) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 4;
  params.deviant_router_prob = 0.0;
  const auto views = partition_routers(lg, params);
  for (const auto& view : views) {
    for (const bgp::TableEntry entry : view.table) {
      for (const bgp::RouteView route : entry) {
        const std::uint32_t base =
            100 + 10 * (route.learned_from().value() - 100);
        EXPECT_EQ(route.local_pref(), base);
      }
    }
  }
}

TEST(RouterPartition, DeviantRoutersChangeSomePreferences) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 4;
  params.deviant_router_prob = 1.0;
  params.max_deviation_rate = 0.5;
  const auto views = partition_routers(lg, params);
  std::size_t deviations = 0;
  for (const auto& view : views) {
    for (const bgp::TableEntry entry : view.table) {
      for (const bgp::RouteView route : entry) {
        const std::uint32_t base =
            100 + 10 * (route.learned_from().value() - 100);
        if (route.local_pref() != base) ++deviations;
      }
    }
  }
  EXPECT_GT(deviations, 0u);
}

TEST(RouterPartition, DeterministicAcrossCalls) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 6;
  const auto a = partition_routers(lg, params);
  const auto b = partition_routers(lg, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].table.route_count(), b[r].table.route_count());
  }
}

TEST(RouterPartition, EmptyRouterCountYieldsNoViews) {
  const auto lg = make_lg_table();
  RouterPartitionParams params;
  params.router_count = 0;
  EXPECT_TRUE(partition_routers(lg, params).empty());
}

}  // namespace
}  // namespace bgpolicy::sim
