// Seeded route batches for checking bgp::BgpTable::add_batch (and the
// io::deserialize_table path that feeds it) against sequential add().
#pragma once

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/table.h"
#include "util/rng.h"

namespace bgpolicy::testing {

/// A recorded-table-shaped batch that reaches every add_batch path: runs
/// of one prefix with repeated neighbors, prefixes that come back after
/// other prefixes, and one prefix with more routes (and more distinct
/// neighbors) than BgpTable::kBatchScanLimit, split over several runs.
/// Another prefix first arrives in a run longer than the limit from only
/// three neighbors, then gains a neighbor in a short run, and comes back in
/// a long run again.  Every route has its own local_pref, so a replacement
/// shows in the result, and carries what io::deserialize_table rebuilds
/// (router id = neighbor, sorted communities).
inline std::vector<bgp::Route> random_route_batch(std::uint64_t seed) {
  constexpr std::size_t kLimit = bgp::BgpTable::kBatchScanLimit;
  util::Rng rng(seed);
  std::uint32_t serial = 0;
  std::vector<bgp::Route> batch;
  const auto push = [&](std::uint32_t prefix, std::uint64_t neighbor) {
    bgp::Route route;
    route.prefix = bgp::Prefix((10u << 24) | (prefix << 8), 24);
    route.learned_from = util::AsNumber(static_cast<std::uint32_t>(neighbor));
    route.path =
        bgp::AsPath({route.learned_from, util::AsNumber(64500 + prefix)});
    route.local_pref = ++serial;
    route.router_id = route.learned_from.value();
    for (std::uint64_t c = rng.uniform(0, 3); c > 0; --c) {
      route.add_community(
          bgp::Community(static_cast<std::uint32_t>(rng.uniform(1, 6))));
    }
    batch.push_back(std::move(route));
  };
  // Prefix 0 is the large one, prefix 1 the narrow one; prefixes 2..13
  // take short runs from ten neighbors.
  const auto large_run = [&] {
    for (std::size_t i = 0; i < kLimit + 8; ++i) {
      push(0, rng.uniform(1, 2 * kLimit));
    }
  };
  const auto narrow_run = [&](std::size_t length, std::uint64_t neighbors) {
    for (std::size_t i = 0; i < length; ++i) {
      push(1, rng.uniform(1, neighbors));
    }
  };
  narrow_run(kLimit + 4, 3);
  for (int run = 0; run < 60; ++run) {
    if (run == 10 || run == 30 || run == 50) large_run();
    if (run == 20) {
      push(1, 4);
      narrow_run(2, 5);
    }
    if (run == 40) narrow_run(kLimit + 2, 6);
    const auto prefix = static_cast<std::uint32_t>(rng.uniform(2, 13));
    for (std::uint64_t n = rng.uniform(1, 8); n > 0; --n) {
      push(prefix, rng.uniform(1, 10));
    }
  }
  narrow_run(1, 6);
  return batch;
}

/// Route for route and in prefixes() order.
inline void expect_same_table(const bgp::BgpTable& actual,
                              const bgp::BgpTable& expected) {
  EXPECT_EQ(actual.owner(), expected.owner());
  EXPECT_EQ(actual.route_count(), expected.route_count());
  ASSERT_EQ(actual.prefixes(), expected.prefixes());
  for (const bgp::Prefix& prefix : expected.prefixes()) {
    const auto want = expected.routes(prefix);
    const auto got = actual.routes(prefix);
    ASSERT_EQ(got.size(), want.size()) << prefix.to_string();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << prefix.to_string() << " slot " << i;
    }
  }
}

}  // namespace bgpolicy::testing
