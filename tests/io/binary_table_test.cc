#include "io/binary_table.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "testing/experiment_cache.h"
#include "testing/fixtures.h"
#include "testing/route_batches.h"

namespace bgpolicy::io {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

bgp::BgpTable sample_table() {
  bgp::BgpTable table{AsNumber(7018)};
  auto r = make_route(Prefix::parse("10.0.0.0/24"),
                      {AsNumber(701), AsNumber(3356)}, 90);
  r.med = 7;
  r.origin = bgp::Origin::kIncomplete;
  r.add_community(bgp::Community(7018, 2000));
  table.add(r);
  table.add(make_route(Prefix::parse("10.1.0.0/16"), {AsNumber(1239)}, 120));
  return table;
}

/// Table bytes written by hand in the layout of binary_table.h, routes in
/// the given order — serialize_table only ever writes each prefix's routes
/// in one run, but a decoder must take any order.
std::vector<std::uint8_t> table_bytes(AsNumber owner,
                                      const std::vector<bgp::Route>& routes) {
  std::vector<std::uint8_t> out;
  const auto put = [&](auto value) {
    const std::size_t at = out.size();
    out.resize(at + sizeof(value));
    std::memcpy(out.data() + at, &value, sizeof(value));
  };
  for (const char c : {'B', 'G', 'P', 'T'}) put(static_cast<std::uint8_t>(c));
  put(std::uint16_t{1});
  put(owner.value());
  put(static_cast<std::uint64_t>(routes.size()));
  for (const bgp::Route& route : routes) {
    put(route.prefix.network());
    put(route.prefix.length());
    put(route.learned_from.value());
    put(route.local_pref);
    put(route.med);
    put(static_cast<std::uint8_t>(route.origin));
    put(static_cast<std::uint16_t>(route.path.length()));
    for (const AsNumber hop : route.path.hops()) put(hop.value());
    put(static_cast<std::uint16_t>(route.communities.size()));
    for (const bgp::Community c : route.communities) put(c.raw());
  }
  return out;
}

bgp::BgpTable sequential_table(AsNumber owner,
                               const std::vector<bgp::Route>& routes) {
  bgp::BgpTable table{owner};
  for (const bgp::Route& route : routes) table.add(route);
  return table;
}

TEST(BinaryTable, PrefixInTwoSeparateRunsDecodesLikeSequentialAdd) {
  const Prefix a = Prefix::parse("10.0.0.0/24");
  const Prefix b = Prefix::parse("10.0.1.0/24");
  const std::vector<bgp::Route> routes = {
      make_route(a, {AsNumber(701), AsNumber(9)}, 100),
      make_route(a, {AsNumber(1239), AsNumber(9)}, 110),
      make_route(b, {AsNumber(701), AsNumber(8)}, 120),
      make_route(a, {AsNumber(3356), AsNumber(9)}, 130),  // new neighbor
      make_route(a, {AsNumber(701), AsNumber(9)}, 140),   // replaces #1
  };
  const bgp::BgpTable decoded =
      deserialize_table(table_bytes(AsNumber(7018), routes));
  testing::expect_same_table(decoded, sequential_table(AsNumber(7018), routes));
  ASSERT_EQ(decoded.routes(a).size(), 3u);
  EXPECT_EQ(decoded.routes(a)[0].local_pref, 140u);
}

TEST(BinaryTable, RandomBatchesDecodeLikeSequentialAdd) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<bgp::Route> routes = testing::random_route_batch(seed);
    const bgp::BgpTable expected = sequential_table(AsNumber(7018), routes);
    const std::vector<std::uint8_t> bytes = table_bytes(AsNumber(7018), routes);
    const bgp::BgpTable decoded = deserialize_table(bytes);
    testing::expect_same_table(decoded, expected);
    // Re-encoding writes each prefix's routes in one run: the same table.
    testing::expect_same_table(deserialize_table(serialize_table(decoded)),
                               expected);
  }
}

TEST(BinaryTable, RoundTrip) {
  const auto original = sample_table();
  const auto bytes = serialize_table(original);
  const auto parsed = deserialize_table(bytes);
  EXPECT_EQ(parsed.owner(), original.owner());
  EXPECT_EQ(parsed.route_count(), original.route_count());
  const auto p = Prefix::parse("10.0.0.0/24");
  ASSERT_EQ(parsed.routes(p).size(), 1u);
  const auto& got = parsed.routes(p).front();
  const auto& want = original.routes(p).front();
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.local_pref, want.local_pref);
  EXPECT_EQ(got.med, want.med);
  EXPECT_EQ(got.origin, want.origin);
  EXPECT_EQ(got.communities, want.communities);
}

TEST(BinaryTable, EncodingMatchesGoldenBytes) {
  // The layout of binary_table.h, little-endian: header, then the /24's
  // route (two hops, one community), then the /16's (one hop, none).
  const std::vector<std::uint8_t> golden = {
      0x42, 0x47, 0x50, 0x54, 0x01, 0x00, 0x6a, 0x1b, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x18, 0xbd,
      0x02, 0x00, 0x00, 0x5a, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x02,
      0x02, 0x00, 0xbd, 0x02, 0x00, 0x00, 0x1c, 0x0d, 0x00, 0x00, 0x01, 0x00,
      0xd0, 0x07, 0x6a, 0x1b, 0x00, 0x00, 0x01, 0x0a, 0x10, 0xd7, 0x04, 0x00,
      0x00, 0x78, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0xd7, 0x04, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(serialize_table(sample_table()), golden);
}

TEST(BinaryTable, AppendTableWritesBehindExistingBytes) {
  const std::vector<std::uint8_t> prefix = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> out = prefix;
  append_table(sample_table(), out);
  std::vector<std::uint8_t> want = prefix;
  const auto table = serialize_table(sample_table());
  want.insert(want.end(), table.begin(), table.end());
  EXPECT_EQ(out, want);
}

TEST(BinaryTable, RejectsCorruptInput) {
  const auto bytes = serialize_table(sample_table());

  // Truncation at every boundary of interest.
  for (const std::size_t cut : std::vector<std::size_t>{
           0, 3, 6, 10, bytes.size() - 1}) {
    const std::span<const std::uint8_t> truncated(bytes.data(), cut);
    EXPECT_THROW(deserialize_table(truncated), std::invalid_argument)
        << "cut at " << cut;
  }

  // Bad magic.
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(deserialize_table(bad_magic), std::invalid_argument);

  // Bad version.
  auto bad_version = bytes;
  bad_version[4] = 0xFF;
  EXPECT_THROW(deserialize_table(bad_version), std::invalid_argument);

  // Trailing garbage.
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_table(trailing), std::invalid_argument);
}

TEST(BinaryTable, EmptyTable) {
  const bgp::BgpTable empty{AsNumber(9)};
  const auto parsed = deserialize_table(serialize_table(empty));
  EXPECT_EQ(parsed.owner(), AsNumber(9));
  EXPECT_EQ(parsed.route_count(), 0u);
}

TEST(BinaryTable, PipelineLookingGlassRoundTrips) {
  const auto& exp = bgpolicy::testing::shared_experiment();
  const auto& lg = exp.sim().sim.looking_glass.at(AsNumber(7018));
  const auto parsed = deserialize_table(serialize_table(lg));
  EXPECT_EQ(parsed.route_count(), lg.route_count());
  EXPECT_EQ(parsed.prefix_count(), lg.prefix_count());
  // Best-route agreement on a sample prefix.
  const auto prefixes = lg.prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto* want = lg.best(prefixes.front());
  const auto* got = parsed.best(prefixes.front());
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->path, want->path);
}

}  // namespace
}  // namespace bgpolicy::io
