#include "bgp/table.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "testing/route_batches.h"

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
  EXPECT_EQ(table.best(kPrefix), nullptr);
}

TEST(BgpTable, AddAndLookup) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(5)}, 120));
  table.add(make_route(kOther, {AsNumber(4)}, 100));
  EXPECT_EQ(table.prefix_count(), 2u);
  EXPECT_EQ(table.route_count(), 3u);
  EXPECT_EQ(table.routes(kPrefix).size(), 2u);
  const Route* best = table.best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, AsNumber(5));
}

TEST(BgpTable, SameNeighborReplacesImplicitWithdraw) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(4)}, 70));
  EXPECT_EQ(table.route_count(), 1u);
  EXPECT_EQ(table.best(kPrefix)->local_pref, 70u);
}

TEST(BgpTable, WithdrawRemovesOnlyThatNeighbor) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(5)}, 120));
  table.withdraw(kPrefix, AsNumber(5));
  EXPECT_EQ(table.route_count(), 1u);
  EXPECT_EQ(table.best(kPrefix)->learned_from, AsNumber(4));
  table.withdraw(kPrefix, AsNumber(4));
  EXPECT_FALSE(table.contains(kPrefix));
  EXPECT_EQ(table.prefix_count(), 0u);
}

TEST(BgpTable, WithdrawMissingIsNoOp) {
  BgpTable table{AsNumber(7018)};
  table.withdraw(kPrefix, AsNumber(4));
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.withdraw(kPrefix, AsNumber(9));
  EXPECT_EQ(table.route_count(), 1u);
}

TEST(BgpTable, ForEachBestVisitsOnePerPrefix) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kPrefix, {AsNumber(5)}, 120));
  table.add(make_route(kOther, {AsNumber(4)}, 100));
  std::size_t count = 0;
  table.for_each_best([&](const Route& best) {
    ++count;
    if (best.prefix == kPrefix) EXPECT_EQ(best.learned_from, AsNumber(5));
  });
  EXPECT_EQ(count, 2u);
}

TEST(BgpTable, PrefixesReturnsAll) {
  BgpTable table{AsNumber(7018)};
  table.add(make_route(kPrefix, {AsNumber(4)}, 100));
  table.add(make_route(kOther, {AsNumber(4)}, 100));
  auto prefixes = table.prefixes();
  EXPECT_EQ(prefixes.size(), 2u);
}

// add_batch is the batch-load fast path: same observable semantics as
// calling add() per route, including implicit-withdraw replacement within
// the batch and against pre-existing routes.
TEST(BgpTable, AddBatchMatchesSequentialAdd) {
  std::vector<Route> batch;
  batch.push_back(make_route(kPrefix, {AsNumber(4)}, 100));
  batch.push_back(make_route(kPrefix, {AsNumber(5)}, 120));
  batch.push_back(make_route(kOther, {AsNumber(4)}, 90));
  batch.push_back(make_route(kPrefix, {AsNumber(4)}, 70));  // replaces #1
  batch.push_back(make_route(kOther, {AsNumber(6)}, 110));

  BgpTable sequential{AsNumber(7018)};
  BgpTable batched{AsNumber(7018)};
  // Both tables start with a pre-existing route that the batch replaces.
  sequential.add(make_route(kOther, {AsNumber(6)}, 50));
  batched.add(make_route(kOther, {AsNumber(6)}, 50));
  for (const Route& route : batch) sequential.add(route);
  batched.add_batch(std::move(batch));

  EXPECT_EQ(batched.prefix_count(), sequential.prefix_count());
  EXPECT_EQ(batched.route_count(), sequential.route_count());
  for (const Prefix& prefix : {kPrefix, kOther}) {
    const auto expected = sequential.routes(prefix);
    const auto actual = batched.routes(prefix);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].learned_from, expected[i].learned_from);
      EXPECT_EQ(actual[i].local_pref, expected[i].local_pref);
    }
  }
  EXPECT_EQ(batched.best(kPrefix)->learned_from, AsNumber(5));
  EXPECT_EQ(batched.routes(kOther).size(), 2u);
  EXPECT_EQ(batched.best(kOther)->local_pref, 110u);
}

// Seeded batches that reach every add_batch path (testing/route_batches.h),
// loaded into an empty table and into one that already holds routes for
// most of the batch's prefixes, the large one included.
TEST(BgpTable, AddBatchMatchesSequentialAddOnRandomBatches) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Route> batch = testing::random_route_batch(seed);
    std::vector<Route> existing = testing::random_route_batch(seed + 1000);
    std::erase_if(existing, [](const Route& route) {
      return route.local_pref % 7 != 0;
    });
    for (const bool prefilled : {false, true}) {
      BgpTable sequential{AsNumber(7018)};
      BgpTable batched{AsNumber(7018)};
      if (prefilled) {
        for (const Route& route : existing) {
          sequential.add(route);
          batched.add(route);
        }
      }
      for (const Route& route : batch) sequential.add(route);
      batched.add_batch(batch);
      testing::expect_same_table(batched, sequential);

      std::size_t largest = 0;
      for (const Prefix& prefix : sequential.prefixes()) {
        largest = std::max(largest, sequential.routes(prefix).size());
      }
      EXPECT_GT(largest, BgpTable::kBatchScanLimit);
    }
  }
}

TEST(BgpTable, AddBatchEmptyIsNoOp) {
  BgpTable table{AsNumber(7018)};
  table.add_batch({});
  EXPECT_EQ(table.route_count(), 0u);
}

}  // namespace
}  // namespace bgpolicy::bgp
