// Unit coverage for the flat-core building blocks; the end-to-end
// guarantee lives in flat_equivalence_test.cc.
#include "sim/flat_engine.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/decision.h"
#include "bgp/route.h"
#include "testing/fixtures.h"
#include "util/arena.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;

TEST(PathTable, PrependInternsByValue) {
  PathTable paths;
  const auto p1 = paths.prepend(PathTable::kEmptyPath, AsNumber(10));
  const auto p21 = paths.prepend(p1, AsNumber(20));
  // Same value -> same id, no new node.
  const auto node_count = paths.node_count();
  EXPECT_EQ(paths.prepend(p1, AsNumber(20)), p21);
  EXPECT_EQ(paths.node_count(), node_count);
  // Different parents with the same front are distinct paths.
  const auto p2 = paths.prepend(PathTable::kEmptyPath, AsNumber(20));
  EXPECT_NE(p2, p21);

  EXPECT_EQ(paths.length(PathTable::kEmptyPath), 0u);
  EXPECT_EQ(paths.length(p21), 2u);
  EXPECT_EQ(paths.front(p21), AsNumber(20));
  EXPECT_EQ(paths.origin(p21), AsNumber(10));
  EXPECT_TRUE(paths.contains(p21, AsNumber(10)));
  EXPECT_TRUE(paths.contains(p21, AsNumber(20)));
  EXPECT_FALSE(paths.contains(p21, AsNumber(30)));

  const bgp::AsPath materialized = paths.materialize(p21);
  EXPECT_EQ(materialized, bgp::AsPath({AsNumber(20), AsNumber(10)}));
  EXPECT_EQ(paths.materialize(PathTable::kEmptyPath).length(), 0u);
}

TEST(CommunityTable, AddMatchesRouteSemanticsAndInternsByContent) {
  util::MonotonicArena arena;
  CommunityTable comms(arena);
  const bgp::Community x(1, 100);
  const bgp::Community y(2, 200);

  const auto sx = comms.add(CommunityTable::kEmptySet, x);
  const auto sxy = comms.add(sx, y);
  // Duplicate add is the identity (Route::add_community dedups).
  EXPECT_EQ(comms.add(sxy, x), sxy);
  // Different add order, same value -> same id.
  const auto sy = comms.add(CommunityTable::kEmptySet, y);
  EXPECT_EQ(comms.add(sy, x), sxy);

  EXPECT_TRUE(comms.contains(sxy, x));
  EXPECT_TRUE(comms.contains(sxy, y));
  EXPECT_FALSE(comms.contains(sx, y));
  EXPECT_FALSE(comms.contains(CommunityTable::kEmptySet, x));

  // Members come out sorted, exactly like the Route field.
  bgp::Route route;
  route.add_community(y);
  route.add_community(x);
  route.add_community(y);
  const auto members = comms.members(sxy);
  ASSERT_EQ(members.size(), route.communities.size());
  EXPECT_TRUE(std::equal(members.begin(), members.end(),
                         route.communities.begin()));
}

TEST(MonotonicArena, ResetKeepsBlocksAndTracksPeak) {
  util::MonotonicArena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  auto* a = arena.allocate<std::uint64_t>(100);
  ASSERT_NE(a, nullptr);
  a[99] = 7;  // writable
  const auto reserved = arena.bytes_reserved();
  EXPECT_GE(arena.bytes_used(), 100 * sizeof(std::uint64_t));
  EXPECT_GE(arena.peak_bytes(), arena.bytes_used());

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // blocks kept
  // Reuses the same storage after reset.
  auto* b = arena.allocate<std::uint64_t>(1);
  EXPECT_EQ(static_cast<void*>(b), static_cast<void*>(a));
}

TEST(SelectBestColumns, AgreesWithRouteSelection) {
  // Candidates crafted to exercise every decision step at least once.
  const bgp::Prefix prefix = bgp::Prefix::parse("10.0.0.0/24");
  std::vector<bgp::Route> routes;
  for (std::uint32_t i = 0; i < 6; ++i) {
    bgp::Route r = make_route(prefix, {AsNumber(100 + i), AsNumber(1)},
                              /*local_pref=*/i < 2 ? 120 : 100);
    r.med = i % 3;
    r.router_id = 1000 - i;
    routes.push_back(r);
  }
  routes[4].path = bgp::AsPath({AsNumber(104)});

  std::vector<std::uint32_t> lp, plen, nh, med, igp, router;
  std::vector<std::uint8_t> origin, ebgp;
  for (const auto& r : routes) {
    lp.push_back(r.local_pref);
    plen.push_back(static_cast<std::uint32_t>(r.path.length()));
    origin.push_back(static_cast<std::uint8_t>(r.origin));
    nh.push_back(r.next_hop_as() ? r.next_hop_as()->value()
                                 : bgp::kNoNextHop);
    med.push_back(r.med);
    ebgp.push_back(r.from_ebgp ? 1 : 0);
    igp.push_back(r.igp_metric);
    router.push_back(r.router_id);
  }
  const bgp::RouteColumns columns{lp, plen, origin, nh,
                                  med, ebgp, igp, router};

  const auto by_columns = bgp::select_best(columns);
  const auto by_routes = bgp::select_best(routes);
  ASSERT_TRUE(by_columns.has_value());
  ASSERT_TRUE(by_routes.has_value());
  EXPECT_EQ(*by_columns, *by_routes);

  const bgp::RouteColumns empty{};
  EXPECT_FALSE(bgp::select_best(empty).has_value());
}

TEST(FlatScratchPool, LeasesAreReused) {
  FlatScratchPool pool;
  const auto f = figure3_graph();
  const auto policies = typical_policies(f.graph);
  const FlatSimContext context(f.graph, policies);
  const FlatScratch* warmed = nullptr;
  {
    const auto lease = pool.acquire();
    const auto state = compute_prefix_flat(
        context, {bgp::Prefix::parse("10.0.0.0/24"), f.a}, nullptr, {},
        *lease);
    EXPECT_TRUE(state.converged);
    warmed = &*lease;
  }
  // The released scratch is handed out again instead of a fresh one.
  EXPECT_EQ(&*pool.acquire(), warmed);
  {
    // Two concurrent leases are distinct scratches.
    const auto first = pool.acquire();
    const auto second = pool.acquire();
    EXPECT_NE(&*first, &*second);
  }
}

}  // namespace
}  // namespace bgpolicy::sim
