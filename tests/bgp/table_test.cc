#include "bgp/table.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "io/binary_table.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace bgpolicy::bgp {
namespace {

using testing::make_route;
using util::AsNumber;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");
const Prefix kOther = Prefix::parse("10.0.1.0/24");

TEST(BgpTable, StartsEmpty) {
  const BgpTable table{AsNumber(7018)};
  EXPECT_EQ(table.owner(), AsNumber(7018));
  EXPECT_EQ(table.prefix_count(), 0u);
  EXPECT_EQ(table.route_count(), 0u);
  EXPECT_FALSE(table.contains(kPrefix));
  EXPECT_FALSE(table.best(kPrefix));
  EXPECT_TRUE(table.routes(kPrefix).empty());
  EXPECT_EQ(table.begin(), table.end());
}

TEST(BgpTable, AddAndLookup) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(5)}, 120));
  table.add(make_route(kOther, {AsNumber(4)}, 100));
  EXPECT_EQ(table.prefix_count(), 2u);
  EXPECT_EQ(table.route_count(), 3u);
  EXPECT_EQ(table.routes(kPrefix).size(), 2u);
  const std::optional<RouteView> best = table.best(kPrefix);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->learned_from(), AsNumber(5));
  EXPECT_EQ(best->prefix(), kPrefix);
}

TEST(BgpTable, SameNeighborReplacesImplicitWithdraw) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(4)}, 70));
  EXPECT_EQ(table.route_count(), 1u);
  EXPECT_EQ(table.best(kPrefix)->local_pref(), 70u);
}

TEST(BgpTable, IteratesPrefixesInFirstInsertionOrderWithTheirBest) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kOther, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(5)}, 120));
  std::vector<Prefix> order;
  for (const TableEntry entry : table) {
    order.push_back(entry.prefix());
    if (entry.prefix() == kPrefix) {
      EXPECT_EQ(entry.best().learned_from(), AsNumber(5));
    }
  }
  EXPECT_EQ(order, (std::vector<Prefix>{kOther, kPrefix}));
  EXPECT_EQ(table.prefixes().size(), 2u);
}

// A view reports the decision inputs a table does not keep as a recorded
// row carries them: router id = learned_from, eBGP, IGP metric 0.  So the
// lower neighbor wins an otherwise exact tie.
TEST(BgpTable, ViewBreaksTiesByNeighbor) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(9), AsNumber(1)}, 100));
  table.add(make_route(kPrefix, {AsNumber(3), AsNumber(1)}, 100));
  EXPECT_EQ(table.best(kPrefix)->learned_from(), AsNumber(3));
  const Route row = table.routes(kPrefix)[0].to_route();
  EXPECT_EQ(row.router_id, 9u);
  EXPECT_TRUE(row.from_ebgp);
  EXPECT_EQ(row.igp_metric, 0u);
}

TEST(BgpTable, CommunitiesKeptSortedAndDistinct) {
  BgpTable table{AsNumber(7018)};
  Route route = make_route(kPrefix, {AsNumber(4)});
  route.communities = {Community(9, 1), Community(2, 2), Community(9, 1)};
  table.add(route);
  const CommunitySpan communities = table.routes(kPrefix)[0].communities();
  ASSERT_EQ(communities.size(), 2u);
  EXPECT_EQ(communities[0], Community(2, 2));
  EXPECT_TRUE(communities.has_community(Community(9, 1)));
  EXPECT_FALSE(communities.has_community(Community(9, 2)));
}

TEST(BgpTable, RejectsARowPastTheStoredLengths) {
  BgpTable table{AsNumber(7018)};
  Route route = make_route(kPrefix, {AsNumber(4)});
  route.path = AsPath(
      std::vector<AsNumber>(BgpTable::kMaxRowList + 1, AsNumber(4)));
  EXPECT_THROW(table.add(route), std::length_error);
  EXPECT_EQ(table.route_count(), 0u);
}

/// The table add() must build, kept the simple way: a vector of rows per
/// prefix in first-insertion order, a row from a known neighbor replacing
/// that neighbor's row in its slot.
struct ModelTable {
  std::vector<std::pair<Prefix, std::vector<Route>>> entries;

  void add(const Route& route) {
    auto entry = std::find_if(
        entries.begin(), entries.end(),
        [&](const auto& e) { return e.first == route.prefix; });
    if (entry == entries.end()) {
      entries.push_back({route.prefix, {}});
      entry = entries.end() - 1;
    }
    for (Route& slot : entry->second) {
      if (slot.learned_from == route.learned_from) {
        slot = route;
        return;
      }
    }
    entry->second.push_back(route);
  }
};

/// A route for one of `prefixes` from one of a few neighbors, with a path
/// and a community set of random length (empty included).
Route random_route(util::Rng& rng, const std::vector<Prefix>& prefixes) {
  const AsNumber neighbor(static_cast<std::uint32_t>(1 + rng.index(6)));
  std::vector<AsNumber> hops{neighbor};
  for (std::size_t i = rng.index(5); i > 0; --i) {
    hops.emplace_back(static_cast<std::uint32_t>(100 + rng.index(50)));
  }
  Route route = make_route(prefixes[rng.index(prefixes.size())], hops,
                           static_cast<std::uint32_t>(80 + rng.index(60)));
  route.med = static_cast<std::uint32_t>(rng.index(3));
  route.origin = static_cast<Origin>(rng.index(3));
  for (std::size_t i = rng.index(4); i > 0; --i) {
    route.add_community(
        Community(static_cast<std::uint16_t>(rng.index(4)),
                  static_cast<std::uint16_t>(rng.index(4))));
  }
  return route;
}

void expect_matches_model(const BgpTable& table, const ModelTable& model) {
  ASSERT_EQ(table.prefix_count(), model.entries.size());
  std::size_t rows = 0;
  std::size_t e = 0;
  for (const TableEntry entry : table) {
    const auto& [prefix, routes] = model.entries[e++];
    ASSERT_EQ(entry.prefix(), prefix);
    ASSERT_EQ(entry.size(), routes.size()) << prefix.to_string();
    for (std::size_t i = 0; i < routes.size(); ++i) {
      EXPECT_EQ(entry[i].to_route(), routes[i])
          << prefix.to_string() << " slot " << i;
    }
    rows += routes.size();
  }
  EXPECT_EQ(table.route_count(), rows);
}

// Any sequence of adds — prefixes coming back after others, replacements
// that grow, shrink or keep a path or community list — leaves the table
// add()'s simple model describes, and its bytes depend only on that
// content: rebuilding it in canonical order encodes identically.  append()
// is the same sequence of adds.
TEST(BgpTable, AnyAddSequenceMatchesTheModelAndEncodesByContent) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    std::vector<Prefix> prefixes;
    for (std::uint32_t i = 0; i < 8; ++i) {
      prefixes.push_back(Prefix((10u << 24) | (i << 8), 24));
    }
    BgpTable table{AsNumber(7018)};
    BgpTable first_half{AsNumber(7018)};
    BgpTable second_half{AsNumber(7018)};
    ModelTable model;
    constexpr std::size_t kAdds = 120;
    for (std::size_t i = 0; i < kAdds; ++i) {
      const Route route = random_route(rng, prefixes);
      table.add(route);
      (i < kAdds / 2 ? first_half : second_half).add(route);
      model.add(route);
    }
    expect_matches_model(table, model);

    BgpTable canonical{AsNumber(7018)};
    for (const auto& [prefix, routes] : model.entries) {
      for (const Route& route : routes) canonical.add(route);
    }
    EXPECT_EQ(io::serialize_table(table), io::serialize_table(canonical));

    first_half.append(second_half);
    EXPECT_EQ(io::serialize_table(first_half), io::serialize_table(table));
  }
}

}  // namespace
}  // namespace bgpolicy::bgp
